(** A thttpd-style single-process event-driven web server: the
    {!Server_core} loop over one {!Backend}, which every descriptor is
    registered with.

    The backend decides whether this is "stock thttpd using normal
    poll()" or "thttpd modified to use /dev/poll" — the server code is
    identical, which is the point of the paper's Section 3. *)

open Sio_sim
open Sio_kernel

type config = {
  backlog : int;
  conn : Conn.config;
  idle_timeout : Time.t;  (** close connections idle this long (60 s) *)
  sweep_period : Time.t;  (** how often the idle sweep runs *)
  sweep_cost_per_conn : Time.t;  (** user CPU per connection walked *)
  sample_interval : Time.t;  (** reply-rate sampling granularity *)
  max_events_per_iter : int;
      (** connections serviced per loop iteration before polling
          again. Real event loops bound per-iteration work for
          fairness; events past the bound are simply picked up by the
          next (level-triggered) scan. With classic poll() this is
          what makes large idle sets expensive: the full scan is paid
          once per [max_events_per_iter] serviced connections. It also
          reproduces the paper's observed starvation: ready
          descriptors are serviced in scan order, so high-numbered
          connections can wait many cycles under overload. *)
}

val default_config : config

type state
type t = state Server_core.t

val start :
  proc:Process.t -> backend:Backend.t -> ?config:config -> unit -> (t, [ `Emfile ]) result
(** Installs the listener, registers it with the backend, and begins
    the event loop. *)

val listener : t -> Socket.t
val stats : t -> Server_stats.t
val connection_count : t -> int

val stop : t -> unit
(** The loop exits after the current iteration; no further accepts or
    reads happen. *)
