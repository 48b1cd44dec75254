open Sio_sim
open Sio_kernel

type transmit = Copy | Sendfile | Ring | Selective

type config = {
  doc_bytes : int;
  parse_cost : Time.t;
  respond_cost : Time.t;
  read_spin_cost : Time.t;
  fs : Fs.t option;
  transmit : transmit;
}

let not_found_body_bytes = 120

(* One ring slot per hardware page: the per-page map charge models
   get_user_pages on 4 KB pages. *)
let ring_slot_bytes = 4096

let default_config =
  {
    doc_bytes = Http.default_document_bytes;
    parse_cost = Time.us 240;
    respond_cost = Time.us 340;
    read_spin_cost = Time.us 15;
    fs = None;
    transmit = Copy;
  }

(* How a response's bytes reach the wire, resolved once per response:
   the 404 page (and any error body) is user-generated text, never
   page-aligned file data, so it must stay on the copy path no matter
   what [config.transmit] says; and a refused ring attach (memory
   budget) degrades to copy rather than failing the response. *)
type path = P_copy | P_sendfile | P_ring of { copy_bytes : int }

type send_state = {
  path : path;
  total : int;  (* full response size on the wire *)
  mutable sent : int;  (* bytes accepted into the send buffer so far *)
}

type t = {
  fd : int;
  mutable request : string; (* text read so far; usually one segment *)
  mutable last_activity : Sio_sim.Time.t;
  mutable send : send_state option;
}

let create ~fd ~now = { fd; request = ""; last_activity = now; send = None }

let with_fd t ~fd = { t with fd }

let fd t = t.fd
let last_activity t = t.last_activity
let touch t ~now = t.last_activity <- now
let sending t = t.send <> None

type outcome =
  | Replied of int
  | Again
  | Blocked of int
  | Closed_by_peer

(* Push the pending response forward by one send call. Every exit that
   is not [Blocked] closes the descriptor: HTTP/1.0, no keep-alive. *)
let continue_send proc t st =
  let remaining = st.total - st.sent in
  let result =
    match st.path with
    | P_copy -> Kernel.write proc t.fd ~bytes_len:remaining
    | P_sendfile -> Kernel.sendfile proc t.fd ~bytes_len:remaining
    | P_ring { copy_bytes } ->
        (* Headers drain first (FIFO), so only the not-yet-sent prefix
           of the copied-through region still needs copying. *)
        let copy_now = Stdlib.max 0 (copy_bytes - st.sent) in
        Kernel.ring_send proc t.fd ~bytes_len:remaining ~copy_bytes:copy_now
  in
  match result with
  | Ok n when st.sent + n >= st.total ->
      t.send <- None;
      ignore (Kernel.close proc t.fd);
      Replied n
  | Ok n ->
      st.sent <- st.sent + n;
      Blocked n
  | Error (`Econnreset | `Ebadf | `Emfile | `Eagain | `Einval) ->
      t.send <- None;
      ignore (Kernel.close proc t.fd);
      Closed_by_peer

let resolve_path proc config t ~not_found ~body_bytes =
  if not_found then P_copy
  else
    match config.transmit with
    | Copy -> P_copy
    | Sendfile -> P_sendfile
    | Ring | Selective -> (
        match Kernel.ring_attach proc t.fd ~slot_bytes:ring_slot_bytes with
        | Ok () ->
            let copy_bytes =
              match config.transmit with
              | Selective -> Http.header_bytes ~body_bytes
              | Copy | Sendfile | Ring -> 0
            in
            P_ring { copy_bytes }
        | Error (`Ebadf | `Einval | `Enobufs | `Econnreset) -> P_copy)

let respond proc config t =
  Kernel.compute proc config.parse_cost;
  match Http.parse_request t.request with
  | Error (`Incomplete | `Malformed) ->
      (* Junk request: drop the connection, as thttpd does. *)
      ignore (Kernel.close proc t.fd);
      Closed_by_peer
  | Ok req ->
      Kernel.compute proc config.respond_cost;
      let body_bytes, not_found =
        match config.fs with
        | None -> (config.doc_bytes, false)
        | Some fs -> (
            match Fs.read_file fs req.Http.path with
            | Ok bytes -> (bytes, false)
            | Error `Enoent -> (not_found_body_bytes, true))
      in
      let total = Http.response_bytes ~body_bytes in
      let path = resolve_path proc config t ~not_found ~body_bytes in
      let st = { path; total; sent = 0 } in
      t.send <- Some st;
      continue_send proc t st

let handle_event proc config t ~now =
  t.last_activity <- now;
  match t.send with
  | Some st ->
      (* A response is in flight: whatever the event bits, the only
         useful work is pushing more of it out. *)
      continue_send proc t st
  | None -> (
      match Kernel.read proc t.fd with
      | Ok (Kernel.Data (text, _bytes)) ->
          (* The request normally arrives in one segment and is kept
             as delivered; only a split request is concatenated. *)
          t.request <- (if t.request = "" then text else t.request ^ text);
          if Http.is_complete t.request then respond proc config t
          else begin
            Kernel.compute proc config.read_spin_cost;
            Again
          end
      | Ok Kernel.Eagain ->
          Kernel.compute proc config.read_spin_cost;
          Again
      | Ok Kernel.Eof | Ok Kernel.Econnreset ->
          ignore (Kernel.close proc t.fd);
          Closed_by_peer
      | Error (`Ebadf | `Emfile | `Eagain | `Einval) -> Closed_by_peer)
