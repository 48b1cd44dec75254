(** One fully wired benchmark run: server host + network + inactive
    pool + httperf, executed to completion, yielding the measurements
    the paper's figures plot. *)

open Sio_sim
open Sio_kernel
open Sio_httpd

type server_kind =
  | Thttpd_select  (** thttpd on select(2): the pre-poll baseline *)
  | Thttpd_poll  (** stock thttpd on classic poll() *)
  | Thttpd_devpoll of { use_mmap : bool; max_events : int }
      (** thttpd modified for /dev/poll *)
  | Thttpd_epoll of { max_events : int }
      (** thttpd on the epoll-style ready list: the mechanism this
          line of work became *)
  | Phhttpd  (** RT-signal server *)
  | Hybrid  (** the paper's future-work design *)

val pp_server_kind : Format.formatter -> server_kind -> unit

val kind_of_string : string -> (server_kind, [ `Msg of string ]) result
(** The command-line names: [select], [poll], [devpoll],
    [devpoll-nommap], [epoll] (thttpd on that mechanism, batch 64),
    [phhttpd] and [hybrid]. *)

type config = {
  kind : server_kind;
  workload : Workload.t;
  costs : Cost_model.t;
  seed : int;
  thttpd : Thttpd.config;
  phhttpd : Phhttpd.config;
  hybrid : Hybrid.config;
  server_fd_limit : int;
  settle : Time.t;  (** let the inactive pool establish before measuring *)
  drain : Time.t;  (** grace period after generation ends *)
  hints : bool;  (** device-driver hinting available (ablation knob) *)
  wake_policy : Wait_queue.wake_policy;
  transmit : Conn.transmit;
      (** send path for responses: plain write() copies (the default),
          sendfile (paper §6 future work), the shared transmit ring,
          or selective header-copy + body-map *)
  kernel_mem_limit : int option;
      (** cap on modeled kernel memory for sockets ([Host.create]'s
          [mem_limit]); [None] (the default) models an unbounded
          machine and leaves accept behavior exactly as before *)
  net_bandwidth_bits_per_sec : int option;
      (** link speed between clients and server; [None] takes the
          network default (100 Mbit/s, the paper's testbed). The
          response-size figure raises it to 1 Gbit/s so large bodies
          are CPU-bound, not wire-bound. *)
}

val default_config : kind:server_kind -> workload:Workload.t -> config
(** Server document size and sampling follow the workload; everything
    else takes the library defaults. *)

type outcome = {
  metrics : Metrics.t;
  server_stats : Server_stats.t;
  host_counters : Host.counters;
  cpu_utilization : float;
  inactive_established : int;
  inactive_reopens : int;
  final_mode : string;  (** phhttpd/hybrid: mode at end of run *)
  kernel_mem_peak : int;
      (** peak modeled kernel memory reserved for sockets over the
          run, in bytes; deterministic in the seed *)
  host_rss_bytes : int;
      (** measuring host's RSS right after the run: methodology
          context for the memory figure, nondeterministic — report in
          JSON only, never in fingerprinted output *)
}

type running_server = {
  listener : Socket.t;
  stats : Server_stats.t;
  stop : unit -> unit;
  mode : unit -> string;  (** the mechanism, or phhttpd/hybrid's current mode *)
}

val start_server : config -> Process.t -> running_server
(** Starts [config.kind] on [proc] with the config's server settings.
    Raises [Failure] when the server cannot open its descriptors. *)

val run : config -> outcome

val run_routed :
  arrivals:Sio_sim.Time.t list ->
  measure:Sio_sim.Time.t ->
  ?mem_pool:Sio_kernel.Host.mem_pool ->
  config ->
  outcome * float list
(** One shard of a cluster run ([Cluster] drives this): the same
    wiring as {!run}, but the client launches exactly the supplied
    arrival offsets (this shard's slice of the global schedule; see
    {!Httperf.start}), the measurement window is the cluster-wide
    generation duration [measure] rather than the per-shard
    workload's, and the host optionally reserves kernel memory
    against a shared {!Sio_kernel.Host.mem_pool}. Also returns the
    per-interval reply-rate series on the cluster's common grid, for
    exact cross-shard aggregation. *)
