(** A phhttpd-style RT-signal-driven web server: a {!Server_core}
    policy.

    Faithful to the behaviour the paper measured, including its warts:

    - every connection's I/O completions are routed to one RT signal
      picked up one-at-a-time with sigwaitinfo (modelled as
      sigtimedwait4 with max=1 so the idle sweep can share the wait);
    - each event pays a per-open-connection bookkeeping cost
      ([conn_table_cost_per_conn]) modelling the unfinished server's
      connection-table walks and cache pressure — the mechanism behind
      the paper's surprise that {e inactive} connections slow an
      event-driven server (Figures 12–13);
    - stale signals naming closed descriptors are tolerated and
      counted;
    - on RT-queue overflow (SIGIO) the server flushes pending signals
      and performs the recovery the paper describes with dismay: every
      connection is handed, {e one descriptor at a time}, over a
      UNIX-domain socket to an actual sibling process (a Linux thread
      has its own pid and descriptor table) that rebuilds its pollfd
      array from scratch. The transfers consume real CPU time during
      which nothing is served — the paper's predicted "server
      meltdown" — and the server {e never switches back} to signal
      mode (Brown never implemented that path). *)

open Sio_sim
open Sio_kernel

type config = {
  backlog : int;
  conn : Conn.config;
  idle_timeout : Time.t;
  sweep_period : Time.t;
  sweep_cost_per_conn : Time.t;
  sample_interval : Time.t;
  signo : int;  (** RT signal bound to every descriptor *)
  conn_table_cost_per_conn : Time.t;  (** per handled event, times open connections *)
  handoff_cost_per_conn : Time.t;
      (** overflow recovery: passing one fd to the poll sibling *)
  rebuild_cost_per_conn : Time.t;
      (** overflow recovery: rebuilding the pollfd array entry *)
  max_events_per_iter : int;
      (** bounded per-iteration work in polling mode, as in
          {!Thttpd.config} *)
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

val is_handing_off : t -> bool
(** True while the one-descriptor-at-a-time transfer to the poll
    sibling is in flight. *)

val sibling : t -> Process.t
(** The poll sibling thread; owns every descriptor after recovery. *)

val stop : t -> unit
