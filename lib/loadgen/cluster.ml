(* N-shard cluster experiments: the SO_REUSEPORT model of
   [Sio_httpd.Shard_cluster] composed with the [Experiment] harness.

   A cluster run is N independent single-shard simulations — each
   shard owns its own engine, host (CPU, arena, counters, memory
   budget), network, server and client slice — stitched together by
   two deterministic pure passes:

   - steering (before): the global arrival schedule is split into
     per-shard arrival lists by [Shard_cluster.route], and the idle
     population and memory budget are partitioned;
   - merge (after): per-shard outcomes are folded into one
     [Experiment.outcome] by counter sums, absolute-grid rate-series
     addition, and histogram merge — all order-insensitive.

   Because every shard is engine-local and the merge is
   order-insensitive, running the shards on a [Domain_pool] (one
   domain per shard) produces byte-identical results to the
   sequential run: the PR 1 determinism discipline applied to the
   server side. *)

open Sio_sim
open Sio_kernel
open Sio_httpd

type mem_mode =
  | Partitioned  (** each shard gets [kernel_mem_limit / shards] *)
  | Shared
      (** one atomic [Host.mem_pool] of [kernel_mem_limit] bytes
          shared by all shards (admission race near the limit is
          nondeterministic under parallel simulation; use
          [Partitioned] where byte-identity matters) *)

type config = {
  base : Experiment.config;
      (** the cluster-wide experiment: [workload.request_rate] and
          [total_connections] describe the aggregate offered load,
          [inactive_connections] the aggregate idle population *)
  shards : int;
  policy : Shard_cluster.policy;
  population : Shard_cluster.population;
  mem_mode : mem_mode;
}

let default_config ~base ~shards =
  {
    base;
    shards;
    policy = Shard_cluster.Hash_tuple;
    population = Shard_cluster.uniform_population;
    mem_mode = Partitioned;
  }

type outcome = {
  merged : Experiment.outcome;
  per_shard : Experiment.outcome array;
  shard_conns : int array;  (** connections steered to each shard *)
}

(* Field-wise sum of host counters; exhaustive destructure so a new
   counter cannot be dropped from cluster totals (same guard as
   [Server_stats.add]). *)
let add_counters ~into (src : Host.counters) =
  let {
    Host.syscalls;
    driver_polls;
    hint_skips;
    wait_queue_wakes;
    rt_enqueued;
    rt_dropped;
    rt_overflows;
    softirqs;
    accepts;
    connections_refused;
  } =
    src
  in
  into.Host.syscalls <- into.Host.syscalls + syscalls;
  into.Host.driver_polls <- into.Host.driver_polls + driver_polls;
  into.Host.hint_skips <- into.Host.hint_skips + hint_skips;
  into.Host.wait_queue_wakes <- into.Host.wait_queue_wakes + wait_queue_wakes;
  into.Host.rt_enqueued <- into.Host.rt_enqueued + rt_enqueued;
  into.Host.rt_dropped <- into.Host.rt_dropped + rt_dropped;
  into.Host.rt_overflows <- into.Host.rt_overflows + rt_overflows;
  into.Host.softirqs <- into.Host.softirqs + softirqs;
  into.Host.accepts <- into.Host.accepts + accepts;
  into.Host.connections_refused <-
    into.Host.connections_refused + connections_refused

let add_errors ~into (src : Metrics.errors) =
  let { Metrics.timeouts; refused; resets; fd_limited; port_limited; truncated } =
    src
  in
  into.Metrics.timeouts <- into.Metrics.timeouts + timeouts;
  into.Metrics.refused <- into.Metrics.refused + refused;
  into.Metrics.resets <- into.Metrics.resets + resets;
  into.Metrics.fd_limited <- into.Metrics.fd_limited + fd_limited;
  into.Metrics.port_limited <- into.Metrics.port_limited + port_limited;
  into.Metrics.truncated <- into.Metrics.truncated + truncated

(* Element-wise sum of per-shard rate series. Every shard's sampler
   is pinned to the common client start (see Httperf), so index i is
   the same absolute interval in every list; a short list just means
   that shard recorded nothing past its end — zeros. *)
let sum_rate_series series =
  let len = List.fold_left (fun n l -> Stdlib.max n (List.length l)) 0 series in
  let acc = Array.make len 0. in
  List.iter
    (List.iteri (fun i r -> acc.(i) <- acc.(i) +. r))
    series;
  Array.to_list acc

let merge_metrics ~target_rate ~duration per_shard rate_series =
  let errors =
    {
      Metrics.timeouts = 0;
      refused = 0;
      resets = 0;
      fd_limited = 0;
      port_limited = 0;
      truncated = 0;
    }
  in
  let latency = Histogram.create () in
  let attempted = ref 0 and completed = ref 0 in
  Array.iter
    (fun (o : Experiment.outcome) ->
      attempted := !attempted + o.Experiment.metrics.Metrics.attempted;
      completed := !completed + o.Experiment.metrics.Metrics.completed;
      add_errors ~into:errors o.Experiment.metrics.Metrics.errors;
      Histogram.merge_into ~dst:latency o.Experiment.metrics.Metrics.latency)
    per_shard;
  Metrics.make ~target_rate ~attempted:!attempted ~completed:!completed ~errors ~latency
    ~duration (sum_rate_series rate_series)

let run ?pool cfg =
  if cfg.shards <= 0 then invalid_arg "Cluster.run: shards must be positive";
  let w = cfg.base.Experiment.workload in
  let n = cfg.shards in
  let total = w.Workload.total_connections in
  (* The global schedule the steering pre-pass splits: connection i
     departs i / rate after the common client start. *)
  let interval_ns = 1_000_000_000 / w.Workload.request_rate in
  let arrivals = Array.init total (fun i -> Time.ns (i * interval_ns)) in
  let assignment =
    Shard_cluster.route ~policy:cfg.policy ~shards:n ~population:cfg.population
      ~seed:cfg.base.Experiment.seed arrivals
  in
  let shard_conns = Shard_cluster.shard_counts ~shards:n assignment in
  let shard_arrivals = Array.make n [] in
  for i = total - 1 downto 0 do
    let s = assignment.(i) in
    shard_arrivals.(s) <- arrivals.(i) :: shard_arrivals.(s)
  done;
  let idle = Shard_cluster.split_evenly ~shards:n w.Workload.inactive_connections in
  let mem_partition =
    match (cfg.mem_mode, cfg.base.Experiment.kernel_mem_limit) with
    | Partitioned, Some limit ->
        Array.map (fun b -> Some b) (Shard_cluster.split_evenly ~shards:n limit)
    | (Shared | Partitioned), _ -> Array.make n None
  in
  let mem_pool =
    match (cfg.mem_mode, cfg.base.Experiment.kernel_mem_limit) with
    | Shared, Some limit -> Some (Host.shared_mem_pool ~limit)
    | (Shared | Partitioned), _ -> None
  in
  let measure = Workload.generation_duration w in
  let shard_cfg s =
    let workload =
      {
        w with
        Workload.total_connections = shard_conns.(s);
        inactive_connections = idle.(s);
      }
    in
    {
      cfg.base with
      Experiment.workload;
      seed = Rng.derive ~seed:cfg.base.Experiment.seed (0x5ad + s);
      kernel_mem_limit = mem_partition.(s);
    }
  in
  let run_shard s =
    Experiment.run_routed ~arrivals:shard_arrivals.(s) ~measure ?mem_pool
      (shard_cfg s)
  in
  let shard_ids = List.init n (fun s -> s) in
  let results =
    match pool with
    | Some p -> Domain_pool.map p ~f:run_shard shard_ids
    | None -> List.map run_shard shard_ids
  in
  let per_shard = Array.of_list (List.map fst results) in
  let rate_series = List.map snd results in
  let metrics =
    merge_metrics ~target_rate:w.Workload.request_rate ~duration:measure
      per_shard rate_series
  in
  let counters = Host.fresh_counters () in
  Array.iter
    (fun (o : Experiment.outcome) ->
      add_counters ~into:counters o.Experiment.host_counters)
    per_shard;
  let server_stats =
    Shard_cluster.merge_stats
      (Array.to_list
         (Array.map (fun (o : Experiment.outcome) -> o.Experiment.server_stats) per_shard))
  in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 per_shard in
  let kernel_mem_peak =
    match mem_pool with
    | Some p -> Host.pool_peak p
    | None -> sum (fun (o : Experiment.outcome) -> o.Experiment.kernel_mem_peak)
  in
  let cpu =
    Array.fold_left
      (fun acc (o : Experiment.outcome) -> acc +. o.Experiment.cpu_utilization)
      0. per_shard
    /. float_of_int n
  in
  let merged =
    {
      Experiment.metrics;
      server_stats;
      host_counters = counters;
      cpu_utilization = cpu;
      inactive_established =
        sum (fun (o : Experiment.outcome) -> o.Experiment.inactive_established);
      inactive_reopens =
        sum (fun (o : Experiment.outcome) -> o.Experiment.inactive_reopens);
      final_mode = (if n = 0 then "" else per_shard.(0).Experiment.final_mode);
      kernel_mem_peak;
      host_rss_bytes =
        Array.fold_left
          (fun acc (o : Experiment.outcome) ->
            Stdlib.max acc o.Experiment.host_rss_bytes)
          0 per_shard;
    }
  in
  { merged; per_shard; shard_conns }
