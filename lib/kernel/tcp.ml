open Sio_sim
open Sio_net

type t = {
  net : Network.t;
  listener : Socket.t;
  extra_latency : Time.t;
  handlers : client_handlers;
  id : int;
  mutable server_sock : Socket.t option;
  mutable client_open : bool;
}

and client_handlers = {
  on_established : t -> unit;
  on_refused : t -> unit;
  on_bytes : t -> int -> unit;
  on_server_fin : t -> unit;
  on_reset : t -> unit;
}

let null_handlers =
  {
    on_established = (fun _ -> ());
    on_refused = (fun _ -> ());
    on_bytes = (fun _ _ -> ());
    on_server_fin = (fun _ -> ());
    on_reset = (fun _ -> ());
  }

let segment_overhead = 40 (* TCP/IP header bytes: SYN, FIN, RST *)

(* Atomic for the same reason as [Socket.next_id]: parallel sweeps
   must not mint duplicate connection ids across domains. *)
let next_id = Atomic.make 0

let charge_softirq host =
  let counters = host.Host.counters in
  counters.Host.softirqs <- counters.Host.softirqs + 1;
  ignore (Host.charge host host.Host.costs.Cost_model.softirq_per_packet)

let connect ~net ~listener ?(extra_latency = Time.zero) ~handlers () =
  let conn =
    {
      net;
      listener;
      extra_latency;
      handlers;
      id = 1 + Atomic.fetch_and_add next_id 1;
      server_sock = None;
      client_open = true;
    }
  in
  let host = Socket.host listener in
  (* SYN travels up; the server's softirq handler either queues the
     new connection or answers with RST. *)
  Network.send_to_server net ~extra_latency ~bytes_len:segment_overhead (fun () ->
      charge_softirq host;
      let refuse () =
        Network.send_to_client net ~extra_latency ~bytes_len:segment_overhead
          (fun () -> if conn.client_open then handlers.on_refused conn)
      in
      match Socket.state listener with
      | Socket.Listening ->
          let sock = Socket.create_established ~host in
          Socket.set_tcp_link sock conn.id;
          Socket.set_transport sock
            ~on_send:(fun n ->
              (* Response bytes toward the client; buffer space is
                 reclaimed when the wire has carried them. *)
              Network.send_to_client net ~extra_latency ~bytes_len:n (fun () ->
                  Socket.release_send_space sock n;
                  if conn.client_open then handlers.on_bytes conn n))
            ~on_close:(fun () ->
              Network.send_to_client net ~extra_latency ~bytes_len:segment_overhead
                (fun () -> if conn.client_open then handlers.on_server_fin conn));
          (* A server-side reset (e.g. accept with a full descriptor
             table) must surface as an RST at the client. *)
          ignore
            (Socket.subscribe sock (fun mask ->
                 if Pollmask.mem Pollmask.pollerr mask then
                   Network.send_to_client net ~extra_latency
                     ~bytes_len:segment_overhead (fun () ->
                       if conn.client_open then begin
                         conn.client_open <- false;
                         handlers.on_reset conn
                       end))
            [@lint.ignore
              "socket-lifetime subscription: Socket.close reclaims every observer \
               registration with the connection's arena slot, so no per-subscription \
               unsubscribe exists"]);
          if Socket.enqueue_accept listener sock then begin
            conn.server_sock <- Some sock;
            Network.send_to_client net ~extra_latency ~bytes_len:segment_overhead
              (fun () -> if conn.client_open then handlers.on_established conn)
          end
          else begin
            refuse ();
            (* The backlog refused it: nothing holds this socket, so
               its arena slot would leak across a reopen storm. *)
            Socket.discard sock
          end
      | Socket.Established | Socket.Peer_closed | Socket.Reset | Socket.Closed ->
          let counters = host.Host.counters in
          counters.Host.connections_refused <- counters.Host.connections_refused + 1;
          refuse ());
  conn

let id t = t.id

let client_send t ~bytes_len ~payload =
  if bytes_len < 0 then invalid_arg "Tcp.client_send: negative length";
  Network.send_to_server t.net ~extra_latency:t.extra_latency
    ~bytes_len:(bytes_len + segment_overhead) (fun () ->
      match t.server_sock with
      | Some sock -> ignore (Socket.deliver sock ~bytes_len ~payload)
      | None -> ())

let client_close t =
  if t.client_open then begin
    t.client_open <- false;
    Network.send_to_server t.net ~extra_latency:t.extra_latency
      ~bytes_len:segment_overhead (fun () ->
        match t.server_sock with
        | Some sock ->
            charge_softirq (Socket.host sock);
            Socket.peer_closed sock
        | None -> ())
  end

let client_abort t =
  if t.client_open then begin
    t.client_open <- false;
    Network.send_to_server t.net ~extra_latency:t.extra_latency
      ~bytes_len:segment_overhead (fun () ->
        match t.server_sock with
        | Some sock ->
            charge_softirq (Socket.host sock);
            Socket.reset sock
        | None -> ())
  end

let is_client_open t = t.client_open
