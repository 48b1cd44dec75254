(** Connection plumbing between a (lightweight) client endpoint and a
    (fully simulated) server socket.

    The benchmark client runs on a machine that is never the
    bottleneck, so its endpoint is a set of callbacks rather than a
    simulated kernel object; the server endpoint is a real
    {!Socket.t} subject to the host's CPU and event machinery. The
    TCP three-way handshake is abridged to one round trip: SYN up,
    SYN-ACK down (or RST when the backlog is full), after which both
    ends consider the connection established — the level of detail
    the paper's benchmark depends on (connection setup latency,
    refusals under load) without per-segment bookkeeping.

    All latencies can be stretched per connection with
    [extra_latency], which is how inactive/modem clients are built. *)

open Sio_sim
open Sio_net

type t

type client_handlers = {
  on_established : t -> unit;
  on_refused : t -> unit;  (** backlog overflow: RST during handshake *)
  on_bytes : t -> int -> unit;  (** response bytes arriving at the client *)
  on_server_fin : t -> unit;  (** orderly close by the server *)
  on_reset : t -> unit;  (** RST after establishment *)
}

val null_handlers : client_handlers
(** All no-ops; tests override the fields they care about. *)

val connect :
  net:Network.t ->
  listener:Socket.t ->
  ?extra_latency:Time.t ->
  handlers:client_handlers ->
  unit ->
  t
(** Starts the handshake; [handlers.on_established] or
    [handlers.on_refused] fires one RTT later (plus [extra_latency]
    each way). *)

val id : t -> int

val client_send : t -> bytes_len:int -> payload:string -> unit
(** Client pushes request bytes toward the server. *)

val client_close : t -> unit
(** Client FIN; the server socket sees [Peer_closed] one way later. *)

val client_abort : t -> unit
(** Client RST (e.g. benchmark timeout): the server socket is reset. *)

val is_client_open : t -> bool
