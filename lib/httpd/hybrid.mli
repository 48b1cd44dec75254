(** The hybrid server the paper imagines but could not build.

    Section 4 sketches a server that processes requests with RT
    signals for their latency advantage while the load is light, and
    switches to polling — using the RT signal queue maximum as the
    crossover trigger — when the load is heavy. Section 6 explains
    what phhttpd would need for that to work: the poll interest set
    (here, /dev/poll kernel state) must be maintained {e concurrently}
    with signal-queue activity, so a switch costs almost nothing.

    This implementation does exactly that, as a {!Server_core} policy:
    - every accepted connection is registered both with F_SETSIG and
      in a /dev/poll interest set;
    - signal mode consumes one event per syscall (or a batch, when
      [sigtimedwait4_batch > 1], exercising the paper's proposed
      batching syscall);
    - on SIGIO (queue overflow) it flushes the queue and continues on
      /dev/poll with no per-connection handoff;
    - when a /dev/poll batch comes back smaller than [low_watermark]
      and the signal queue is idle, it drains once more and returns to
      signal mode — the path Brown never implemented. *)

open Sio_sim
open Sio_kernel

type config = {
  backlog : int;
  conn : Conn.config;
  idle_timeout : Time.t;
  sweep_period : Time.t;
  sweep_cost_per_conn : Time.t;
  sample_interval : Time.t;
  signo : int;
  sigtimedwait4_batch : int;
      (** 1 = plain sigwaitinfo semantics: only the overflow SIGIO
          switches to polling *)
  switch_streak : int;
      (** consecutive full batches treated as "queue is backing up":
          the load signal that triggers the switch to polling (the
          paper notes the RT queue length tracks server workload);
          unused at batch 1, where every delivery is full *)
  max_events : int;  (** /dev/poll batch size *)
  low_watermark : int;
      (** switch back to signals when a poll batch is smaller than this *)
}

val default_config : config

type mode = Server_core.mode = Signals | Polling

type state
type t = state Server_core.t

val start : proc:Process.t -> ?config:config -> unit -> (t, [ `Emfile ]) result
val listener : t -> Socket.t
val stats : t -> Server_stats.t
val connection_count : t -> int
val mode : t -> mode
val stop : t -> unit
