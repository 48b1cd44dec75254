(** The server code thttpd, phhttpd and hybrid share — the paper's
    Section 3 point that only the notification mechanism changes.

    The core owns the listener, the connection table and
    {!Server_stats}, and runs one loop: wait, accept everything
    pending on the listener, drive ready connections through {!Conn},
    sweep idle connections when due, yield the CPU, wait again. A
    server is a {!policy} over it; ['p] is the policy's own state. *)

open Sio_sim
open Sio_kernel

type mode = Signals | Polling  (** a signal-driven server's current path *)

val string_of_mode : mode -> string

type 'p t

and 'p policy = {
  register : 'p t -> int -> unit;
      (** a new descriptor: add it to the policy's backends *)
  read_on_accept : bool;
      (** read right after accept: data that arrived before F_SETSIG
          raises no signal *)
  charge_event : 'p t -> unit;  (** CPU charged before each connection event *)
  charge_stale : bool;
      (** an event for a closed descriptor costs
          {!Conn.config.read_spin_cost} *)
  want_pollout : 'p t -> int -> unit;  (** a short write: ask for writable edges *)
  forget : 'p t -> int -> unit;  (** a connection left the table *)
  wait : 'p t -> Time.t -> unit;
      (** wait at most this long, dispatch, then {!resume} unless
          stopped *)
}

val start :
  proc:Process.t ->
  backlog:int ->
  conn:Conn.config ->
  idle_timeout:Time.t ->
  sweep_period:Time.t ->
  sweep_cost_per_conn:Time.t ->
  sample_interval:Time.t ->
  policy:'p policy ->
  setup:(int -> ('p, [ `Emfile ]) result) ->
  ('p t, [ `Emfile ]) result
(** Listens, runs [setup] on the listening descriptor (open what the
    policy needs, register the listener), and starts the loop. *)

val wait :
  'p t -> Backend.t -> max:int -> timeout:Time.t -> k:('p t -> Ready_batch.t -> unit) -> unit
(** Wait on the backend; unless stopped, dispatch at most [max] events
    in order and pass the whole batch to [k], whose
    {!Ready_batch.overflowed} tells whether an RT-signal backend's
    overflow SIGIO came with it. The batch is the backend's (valid
    until its next wait). *)

val resume : 'p t -> unit
(** Sweep if due, then yield and wait again. *)

val hand_over : 'p t -> proc:Process.t -> listen_fd:int -> unit
(** The descriptors moved to [proc]'s table: later syscalls and charges
    go to [proc]. *)

val state : 'p t -> 'p
val proc : 'p t -> Process.t
val listen_fd : 'p t -> int
val conns : 'p t -> Conn.t Fd_map.t
val listener : 'p t -> Socket.t
val stats : 'p t -> Server_stats.t
val connection_count : 'p t -> int

val stop : 'p t -> unit
(** The loop exits after the current iteration. *)
