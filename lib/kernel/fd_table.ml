open Sio_sim

type 'a t = {
  limit : int;
  slots : 'a Fd_map.t;
  mutable search_from : int; (* lower bound on the lowest free slot *)
}

let create ?(limit = 1024) () =
  if limit <= 0 then invalid_arg "Fd_table.create: limit must be positive";
  { limit; slots = Fd_map.create ~initial_capacity:64 (); search_from = 0 }

let limit t = t.limit

let alloc t v =
  if Fd_map.length t.slots >= t.limit then Error `Emfile
  else begin
    (* search_from is maintained as a lower bound: it only moves back
       on close, so this scan is amortized O(1). *)
    let rec find_free fd = if Fd_map.mem t.slots fd then find_free (fd + 1) else fd in
    let fd = find_free t.search_from in
    Fd_map.set t.slots fd v;
    t.search_from <- fd + 1;
    Ok fd
  end

let find t fd = Fd_map.find t.slots fd

let find_exn t fd =
  match find t fd with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Fd_table.find_exn: fd %d not open" fd)

let set t fd v =
  if not (Fd_map.mem t.slots fd) then
    invalid_arg (Printf.sprintf "Fd_table.set: fd %d not open" fd)
  else Fd_map.set t.slots fd v

let close t fd =
  match Fd_map.find t.slots fd with
  | None -> None
  | Some _ as found ->
      ignore (Fd_map.remove t.slots fd);
      if fd < t.search_from then t.search_from <- fd;
      found

let is_open t fd = Fd_map.mem t.slots fd
let count t = Fd_map.length t.slots

(* Fd_map iterates in ascending fd order — a function of the open set
   alone, never of allocation history — so letting the order escape to
   callers is deterministic by construction. *)
let iter t f = Fd_map.iter t.slots f
let fold t ~init ~f = Fd_map.fold t.slots ~init ~f:(fun acc fd v -> f acc fd v)
