(** The paper's evaluation, figure by figure, and the post-paper
    figures on other axes.

    Every figure is one specification: an x axis and its values, a few
    series (each a label and a point builder), the CSV columns and the
    chart. One runner ({!run}), one renderer ({!render}), one CSV
    writer ({!Sio_loadgen.Report.csv_of_series}) and one JSON sidecar
    writer ({!json}) serve them all, so the harness prints
    measured-vs-expected side by side whatever the axis. Figures 4-14
    are the complete evaluation section; the extension entries exercise
    the paper's future-work ideas on the same axes. *)

open Sio_loadgen

(** What one point simulates: a single server, or an N-shard cluster
    whose merged outcome is the point. *)
type config = Single of Experiment.config | Cluster of Cluster.config

type series = {
  label : string;
  cap : int option;
      (** largest x this series runs; a mechanism stops where its wait
          complexity stops being affordable on the host, and renderers
          pad the missing cells with ["-"] *)
  config : scale:float -> seed:int -> int -> config;
      (** the point at one x value; its seed must differ from every
          other x's (checked before anything runs) *)
}

type chart =
  | Reply_rate  (** ASCII reply rate vs target rate (rate axis only) *)
  | Compare of Report.column list
      (** each column, every series side by side per x value *)

type t = {
  id : string;  (** e.g. "fig4" *)
  title : string;
  expectation : string;
      (** what the corresponding graph in the paper shows, or what a
          post-paper figure is expected to show *)
  axis : string;  (** the x quantity: "rate", "idle", "body_bytes", ... *)
  xs : int list;  (** the default x values *)
  series : series list;
  columns : Report.column list;  (** CSV columns after the x value *)
  chart : chart;
}

val all : t list
(** Figures 4-14 plus the rate-axis extension experiments, in order:
    what [sio_figures all] runs. *)

val heavy : t list
(** idle-scaling, response-size and shard-scaling: listed in the
    catalogue but, being heavier, run only when named. *)

val idle_scaling : t
(** Reply rate and median latency vs {e idle-connection count} at
    500 req/s, out to the paper's 35 000-connection regime and beyond
    (100k, 1M) — feasible on the host only because every scan path is
    O(active) and per-connection state lives in the compact arena.
    poll stops at 35 000 idle (past it a single O(idle)-per-wait point
    would dominate the sweep's host time); /dev/poll stops at 100 000,
    where its per-interest hint checks have saturated the modeled CPU.
    Counts above 35 000 pace the idle pool's connects at ~2.5k SYN/s,
    slow its retry timer, and disable the server's idle sweep for the
    run (the mega-idle regime). Ignores [scale]. *)

val response_size : t
(** The data-plane companion to the event-notification figures: reply
    throughput (and wire Mbit/s) vs {e response body size} for the four
    transmit paths — write() copies, sendfile, the shared transmit
    ring, and selective header-copy/body-map — on the epoll server,
    where the event layer is out of the way and the send path is the
    bottleneck. Each size has its own offered rate, above the copy
    path's capacity at that size but leaving the ring paths headroom
    at 1 MB. Every point runs on a 1 Gbit/s modeled link so large
    responses stay CPU-bound. *)

val shard_scaling : t
(** The multi-core figure: aggregate reply rate and latency tails vs
    {e shard count} for an N-shard SO_REUSEPORT-style cluster
    ({!Sio_loadgen.Cluster}) of each event mechanism, hash steering
    over a uniform population, at 6400 req/s offered (well above one
    shard's capacity) with 10 000 idle connections split across
    shards. *)

val shard_ablation : t
(** The steering ablation run with {!shard_scaling}: one series per
    policy, epoll shards, a Zipf(1.2)-skewed population of 64 client
    tuples, where tuple-hashing polarizes and round-robin/least-loaded
    do not. Not in the catalogue: it runs whenever shard-scaling
    does. *)

val find : string -> t option
(** A catalogue figure ({!all} or {!heavy}) by id. *)

val ids : unit -> string list
(** Every catalogue id, {!all} then {!heavy}. *)

val point_count : ?xs:int list -> t -> int
(** How many points {!run} with the same [xs] simulates: every series
    times the x values at or below its cap. *)

val run :
  ?pool:Sio_sim.Domain_pool.t ->
  ?scale:float ->
  ?seed:int ->
  ?xs:int list ->
  ?on_point:(label:string -> Sweep.point -> unit) ->
  t ->
  Report.series list
(** Executes every series of the figure at [xs] (default: the figure's
    own), one point per (series, x) within the series' cap. [scale]
    multiplies the paper's 35 000 connections per point where the
    figure scales (default 0.2, which keeps a full figure under a
    minute; use 1.0 for the paper's exact procedure). Raises
    [Invalid_argument] before running anything if two points of a
    series would share a seed (a duplicated x value).

    Without [pool], [on_point] fires as each point completes, for
    progress output. With [pool], all points of the figure run in
    parallel on the pool's domains with bit-identical results;
    [on_point] then fires in series-then-x order once every point has
    landed. *)

val render : Format.formatter -> t -> Report.series list -> unit
(** Per-series tables plus the figure's chart, prefixed by the
    expectation. *)

val json : seed:int -> scale:float -> t -> Report.series list -> string
(** The figure's JSON sidecar: per point, the x value (keyed by the
    axis), the offered rate, every CSV column, and run context — bytes
    and partial writes sent, peak modeled kernel memory, and the
    measuring host's RSS. The RSS makes it nondeterministic, so it
    never enters a CSV or a fingerprint. *)
