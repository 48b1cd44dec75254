open Sio_loadgen

type config = Single of Experiment.config | Cluster of Cluster.config

type series = {
  label : string;
  cap : int option;
  config : scale:float -> seed:int -> int -> config;
}

type chart = Reply_rate | Compare of Report.column list

type t = {
  id : string;
  title : string;
  expectation : string;
  axis : string;
  xs : int list;
  series : series list;
  columns : Report.column list;
  chart : chart;
}

let devpoll = Experiment.Thttpd_devpoll { use_mmap = true; max_events = 64 }
let epoll = Experiment.Thttpd_epoll { max_events = 64 }

(* The paper's axis: the request rate, swept over a base experiment
   with [inactive] idle connections. *)
let rate_series ~label ~kind ~inactive =
  let config ~scale ~seed rate =
    let workload =
      Workload.scaled
        { Workload.default with Workload.inactive_connections = inactive }
        scale
    in
    let base = { (Experiment.default_config ~kind ~workload) with Experiment.seed } in
    Single (Sweep.point_config ~base ~min_duration_s:3 rate)
  in
  { label; cap = None; config }

let rate_figure ~id ~title ~expectation ?(chart = Reply_rate) series =
  {
    id;
    title;
    expectation;
    axis = "rate";
    xs = Sweep.paper_rates;
    series =
      List.map (fun (label, kind, inactive) -> rate_series ~label ~kind ~inactive) series;
    columns = Report.(reply_stats @ (Median_ms :: counts));
    chart;
  }

let single_server ~id ~title ~expectation ~kind ~inactive ~label =
  rate_figure ~id ~title ~expectation [ (label, kind, inactive) ]

let all =
  [
    single_server ~id:"fig4" ~title:"Stock thttpd, normal poll(), 1 inactive connection"
      ~expectation:
        "Tracks the offered rate until processing latency exceeds the request \
         rate at the top of the range, then breaks down."
      ~kind:Experiment.Thttpd_poll ~inactive:1 ~label:"thttpd+poll i=1";
    single_server ~id:"fig5" ~title:"thttpd with /dev/poll, 1 inactive connection"
      ~expectation:"Performs well at all request rates; no breakdown point."
      ~kind:devpoll ~inactive:1 ~label:"thttpd+devpoll i=1";
    single_server ~id:"fig6" ~title:"Stock thttpd, normal poll(), 251 inactive connections"
      ~expectation:
        "Breakdown comes sooner than with load 1; minimum response rates hit \
         zero in places."
      ~kind:Experiment.Thttpd_poll ~inactive:251 ~label:"thttpd+poll i=251";
    single_server ~id:"fig7" ~title:"thttpd with /dev/poll, 251 inactive connections"
      ~expectation:"Almost as good as with no inactive connections."
      ~kind:devpoll ~inactive:251 ~label:"thttpd+devpoll i=251";
    single_server ~id:"fig8" ~title:"Stock thttpd, normal poll(), 501 inactive connections"
      ~expectation:
        "Latency from scanning inactive connections dominates at every \
         request rate: poor throughput, high error rates."
      ~kind:Experiment.Thttpd_poll ~inactive:501 ~label:"thttpd+poll i=501";
    single_server ~id:"fig9" ~title:"thttpd with /dev/poll, 501 inactive connections"
      ~expectation:
        "Handles the idle load with ease; performance only begins to break \
         down at extreme request rates."
      ~kind:devpoll ~inactive:501 ~label:"thttpd+devpoll i=501";
    rate_figure ~id:"fig10"
      ~title:"Connection error rate, 251 and 501 inactive connections"
      ~expectation:
        "Stock poll's error rate climbs toward ~60% of connections; \
         /dev/poll shows no errors at 251 and only sporadic errors at 501."
      ~chart:(Compare [ Report.Err_percent ])
      [
        ("poll i=251", Experiment.Thttpd_poll, 251);
        ("devpoll i=251", devpoll, 251);
        ("poll i=501", Experiment.Thttpd_poll, 501);
        ("devpoll i=501", devpoll, 501);
      ];
    single_server ~id:"fig11" ~title:"phhttpd (RT signals), 1 inactive connection"
      ~expectation:
        "Matches the best servers at low rates; falters at very high rates \
         from the per-event system-call overhead."
      ~kind:Experiment.Phhttpd ~inactive:1 ~label:"phhttpd i=1";
    single_server ~id:"fig12" ~title:"phhttpd (RT signals), 251 inactive connections"
      ~expectation:"Reaches its performance knee sooner than with load 1."
      ~kind:Experiment.Phhttpd ~inactive:251 ~label:"phhttpd i=251";
    single_server ~id:"fig13" ~title:"phhttpd (RT signals), 501 inactive connections"
      ~expectation:
        "Inactive connections hurt throughput at all request rates; scales \
         worse than thttpd with /dev/poll."
      ~kind:Experiment.Phhttpd ~inactive:501 ~label:"phhttpd i=501";
    rate_figure ~id:"fig14" ~title:"Median connection time, 251 inactive connections"
      ~expectation:
        "phhttpd responds 1-3 ms faster than devpoll thttpd up to ~900 \
         req/s, then its median leaps by more than an order of magnitude \
         while thttpd+devpoll stays steady; normal poll sits well above \
         both."
      ~chart:(Compare [ Report.Median_ms ])
      [
        ("devpoll", devpoll, 251);
        ("normal poll", Experiment.Thttpd_poll, 251);
        ("phhttpd", Experiment.Phhttpd, 251);
      ];
    (* Extensions: the paper's Section 6 future work, measurable on the
       same axes. *)
    rate_figure ~id:"hybrid"
      ~title:"Extension: hybrid RT-signal//dev/poll server, 501 inactive connections"
      ~expectation:
        "The paper predicts a well-architected hybrid keeps RT-signal \
         latency at low load without melting down at high load (Section 6)."
      [
        ("hybrid i=501", Experiment.Hybrid, 501);
        ("phhttpd i=501", Experiment.Phhttpd, 501);
        ("devpoll i=501", devpoll, 501);
      ];
    rate_figure ~id:"hybrid-latency"
      ~title:"Extension: hybrid latency vs the paper's servers, 251 inactive"
      ~expectation:
        "A hybrid should match phhttpd's low-load latency and devpoll's \
         stability under overload."
      ~chart:(Compare [ Report.Median_ms ])
      [
        ("hybrid", Experiment.Hybrid, 251);
        ("devpoll", devpoll, 251);
        ("phhttpd", Experiment.Phhttpd, 251);
      ];
    rate_figure ~id:"lineage"
      ~title:"Beyond the paper: select -> poll -> /dev/poll -> epoll, 501 inactive"
      ~expectation:
        "Not in the paper: the historical arc its work sits on. select and \
         poll pay O(descriptors) per wait and collapse under idle load; \
         /dev/poll pays O(interests) hint checks and erodes only at extreme \
         rates; the epoll-style ready list pays O(ready) and stays flat."
      [
        ("select i=501", Experiment.Thttpd_select, 501);
        ("poll i=501", Experiment.Thttpd_poll, 501);
        ("devpoll i=501", devpoll, 501);
        ("epoll i=501", epoll, 501);
      ];
  ]

(* The paper's 35 000-connection regime, previously host-prohibitive:
   with O(active) scan paths the host cost of a point scales with the
   request rate, not the open-set size, so sweeping the idle count to
   35k is cheap. The x axis is the idle-connection count at a fixed
   request rate; select is excluded (FD_SETSIZE caps it at 1024). *)
(* Above the paper's 35 000-connection regime, stock parameters stop
   making sense: the default 500 ms connect window would mean a 2M
   SYN/s burst at a million idle, a refused connection retrying every
   500 ms turns any backlog overflow into a self-sustaining SYN storm
   (24M refusals observed at 1M idle before pacing), and the 60 s idle
   sweep would churn the whole population mid-run. Mega points
   therefore pace the pool's connects at [mega_syn_rate] (safely under
   the modeled accept path's ~6k conns/s capacity), slow the retry
   timer, and push the idle sweep past the run's horizon. Points at or
   below [poll_idle_cap] keep the exact stock parameters, so the
   figure's classic prefix stays byte-identical.

   Each mechanism runs only as far up the axis as its wait complexity
   affords on the host: poll pays O(open set) per wait and stops at
   35k; /dev/poll pays a hint check per registered interest per scan
   (~1.2 us modeled), which saturates the CPU around 80k interests, so
   it stops at 100k with its breakdown on display; the epoll-style
   ready list pays O(ready) and runs the full axis. *)
let poll_idle_cap = 35_000
let devpoll_idle_cap = 100_000
let mega_syn_rate = 2_500

let idle_point_config ~kind ~scale:_ ~seed idle =
  let rate = 500 in
  let mega = idle > poll_idle_cap in
  let open_window =
    if mega then Sio_sim.Time.ms (idle * 1000 / mega_syn_rate)
    else Sio_sim.Time.ms 500
  in
  let workload =
    {
      Workload.default with
      Workload.request_rate = rate;
      total_connections = Stdlib.max 100 (3 * rate);
      inactive_connections = idle;
      inactive_open_window = open_window;
      inactive_reopen_delay =
        (if mega then Sio_sim.Time.s 5 else Workload.default.Workload.inactive_reopen_delay);
    }
  in
  let base = Experiment.default_config ~kind ~workload in
  let thttpd = { base.Experiment.thttpd with Sio_httpd.Thttpd.backlog = 4096 } in
  let thttpd =
    if mega then { thttpd with Sio_httpd.Thttpd.idle_timeout = Sio_sim.Time.s 7200 }
    else thttpd
  in
  Single
    {
      base with
      Experiment.seed = Sio_sim.Rng.derive ~seed idle;
      (* Room for the idle pool: descriptors, accept bursts (the pool
         opens over the workload's connect window), and settle time to
         let it all establish — for mega points the settle covers the
         whole paced window plus the stock slack. *)
      server_fd_limit = idle + 2048;
      settle =
        Sio_sim.Time.add
          (Sio_sim.Time.s (2 + (idle / 5000)))
          (if mega then open_window else Sio_sim.Time.zero);
      thttpd;
    }

let idle_scaling =
  {
    id = "idle-scaling";
    title = "Reply rate and median latency vs idle connections, 500 req/s";
    expectation =
      "poll degrades linearly in the idle count (every call scans the \
       whole set); /dev/poll holds through the paper's 35 000-connection \
       regime but its per-interest hint checks catch up with it on the \
       way to 100k; the epoll-style ready list pays O(ready) per wait \
       and stays flat out to a million idle connections, bounded only \
       by kernel socket memory.";
    axis = "idle";
    xs = [ 501; 2000; 10000; 35000; 100_000; 1_000_000 ];
    series =
      [
        {
          label = "poll";
          cap = Some poll_idle_cap;
          config = idle_point_config ~kind:Experiment.Thttpd_poll;
        };
        { label = "devpoll"; cap = Some devpoll_idle_cap; config = idle_point_config ~kind:devpoll };
        { label = "epoll"; cap = None; config = idle_point_config ~kind:epoll };
      ];
    columns = Report.(reply_stats @ (Median_ms :: counts) @ [ Kernel_bytes ]);
    chart = Compare [ Report.Avg; Report.Median_ms ];
  }

(* The data-plane figure: reply throughput vs response size for the
   four transmit paths, on the epoll server (the event layer out of
   the way, the send path is the bottleneck). The x axis is the
   response body size; each size gets its own offered rate, set above
   the copy path's capacity so the achieved rate reads as each mode's
   capacity and the crossover is visible.

   Offered rate per body size: above the copy path's capacity at that
   size (so achieved rate = capacity, mode differences show), while
   leaving the ring paths headroom at 1 MB so streaming completes with
   zero errors (the acceptance criterion for multi-buffer sends). *)
let response_size_rate body_bytes =
  if body_bytes <= 1_024 then 1400
  else if body_bytes <= 4_096 then 1450
  else if body_bytes <= 16_384 then 1000
  else if body_bytes <= 65_536 then 600
  else if body_bytes <= 262_144 then 300
  else 70

let response_size_point_config ~transmit ~scale ~seed body_bytes =
  let rate = response_size_rate body_bytes in
  let workload =
    Workload.scaled
      {
        Workload.default with
        Workload.request_rate = rate;
        (* 25x the rate = a 5 s measurement window at the default
           --scale 0.2 (scaled like every other figure). *)
        total_connections = 25 * rate;
        doc_bytes = body_bytes;
        inactive_connections = 1;
        (* The very first request pays the document's cold page-cache
           read (256 pages x 9 ms disk for 1 MB = a 2.3 s stall);
           httperf's stock 5 s timeout would score the requests queued
           behind that one-time warmup as errors. *)
        client_timeout = Sio_sim.Time.s 10;
      }
      scale
  in
  let base = Experiment.default_config ~kind:epoll ~workload in
  Single
    {
      base with
      Experiment.seed = Sio_sim.Rng.derive ~seed body_bytes;
      transmit;
      (* Room for the SYNs that pile up behind the one-time cold read:
         the stock 128 backlog overflows during a 2.3 s stall at 70/s. *)
      thttpd = { base.Experiment.thttpd with Sio_httpd.Thttpd.backlog = 4096 };
      (* 100 Mbit/s (the paper's testbed) caps 1 MB responses at ~12/s,
         hiding the CPU crossover behind the wire; a gigabit link keeps
         every point CPU-bound. *)
      net_bandwidth_bits_per_sec = Some 1_000_000_000;
    }

let response_size =
  {
    id = "response-size";
    title =
      "Reply throughput vs response size: copy vs sendfile vs ring vs \
       selective (epoll, 1 inactive)";
    expectation =
      "At 1 KB the fixed ring costs (attach mmap, whole pages charged \
       for partial fills) make copy the cheapest path; by 4 KB the \
       ring's ~7.3 ns/byte amortized page cost undercuts sendfile's 12 \
       and copy's 25 and the curves cross; at 256 KB-1 MB the ring \
       paths sustain several times copy's throughput and stream \
       multi-buffer responses with zero errors. Selective tracks ring \
       to within the per-response header copy.";
    axis = "body_bytes";
    xs = [ 1024; 4096; 16384; 65536; 262144; 1_048_576 ];
    series =
      List.map
        (fun (label, transmit) ->
          { label; cap = None; config = response_size_point_config ~transmit })
        Sio_httpd.Conn.
          [ ("copy", Copy); ("sendfile", Sendfile); ("ring", Ring); ("selective", Selective) ];
    columns = Report.(reply_stats @ (Median_ms :: counts) @ [ Mbit_s ]);
    chart = Compare [ Report.Avg; Report.Mbit_s ];
  }

(* The multi-core figure: aggregate reply rate and latency tails vs
   shard count, for an N-shard SO_REUSEPORT-style cluster of each
   event mechanism. The offered rate is fixed well above a single
   shard's capacity, so the achieved rate reads as cluster capacity
   and the curve shows how each mechanism converts shards into
   throughput under a large shared idle population. *)
let shard_rate = 6400
let shard_idle = 10_000

let shard_cluster_config ~kind ~policy ~population ~scale ~seed shards =
  let total =
    Stdlib.max 400 (int_of_float (float_of_int (25 * shard_rate) *. scale))
  in
  let workload =
    {
      Workload.default with
      Workload.request_rate = shard_rate;
      total_connections = total;
      inactive_connections = shard_idle;
    }
  in
  let base = Experiment.default_config ~kind ~workload in
  let base =
    {
      base with
      (* One derived seed per (shards, scale-independent) point; the
         cluster derives per-shard seeds from it. *)
      Experiment.seed = Sio_sim.Rng.derive ~seed (0x5ca1e + shards);
      (* Room for each shard's idle slice plus the overload backlog of
         accepted-but-unserviced connections. *)
      server_fd_limit = shard_idle + 8192;
      settle = Sio_sim.Time.s (2 + (shard_idle / 5000));
      thttpd = { base.Experiment.thttpd with Sio_httpd.Thttpd.backlog = 4096 };
    }
  in
  Cluster { Cluster.base; shards; policy; population; mem_mode = Cluster.Partitioned }

let shard_figure ~id ~title ~expectation series =
  {
    id;
    title;
    expectation;
    axis = "shards";
    xs = [ 1; 2; 4; 8 ];
    series =
      List.map
        (fun (label, kind, policy, population) ->
          { label; cap = None; config = shard_cluster_config ~kind ~policy ~population })
        series;
    columns = Report.(reply_stats @ [ P50_ms; P99_ms ] @ counts);
    chart = Compare [ Report.Avg; Report.P99_ms ];
  }

let shard_scaling =
  let uniform kind label =
    (label, kind, Sio_httpd.Shard_cluster.Hash_tuple, Sio_httpd.Shard_cluster.uniform_population)
  in
  shard_figure ~id:"shard-scaling"
    ~title:
      "Aggregate reply rate and latency vs shard count, 6400 req/s \
       offered, 10000 idle connections"
    ~expectation:
      "Each doubling of shards doubles epoll's aggregate reply rate \
       until the offered rate is met (4 shards recover >= 3x a single \
       shard; 8 shards meet the offered load): shards split both the \
       request stream and the idle population, and an O(ready) wait \
       path leaves the extra CPU to the data plane. /dev/poll tracks \
       epoll but keeps paying per-interest hint checks over its idle \
       slice; poll still scans its whole shard per wait, so even 8 \
       shards of it stay far below the offered rate."
    [
      uniform Experiment.Thttpd_poll "poll";
      uniform devpoll "devpoll";
      uniform epoll "epoll";
    ]

(* 64 client endpoints with Zipf(1.2) popularity: the head tuple alone
   carries ~29% of connections, so hashing pins over a quarter of the
   offered load to a single shard. *)
let shard_ablation =
  let skewed = { Sio_httpd.Shard_cluster.tuples = 64; skew = 1.2 } in
  shard_figure ~id:"shard-ablation"
    ~title:
      "Steering ablation: epoll shards, Zipf(1.2) over 64 client tuples, \
       6400 req/s offered, 10000 idle connections"
    ~expectation:
      "Tuple-hashing polarizes (the head tuples pin to one shard, \
       capping the cluster near that shard's capacity) while \
       round-robin and least-loaded stay within a few percent of the \
       uniform-steering cluster."
    (List.map
       (fun policy ->
         (Sio_httpd.Shard_cluster.policy_name policy, epoll, policy, skewed))
       Sio_httpd.Shard_cluster.[ Hash_tuple; Round_robin; Least_loaded ])

let heavy = [ idle_scaling; response_size; shard_scaling ]
let find id = List.find_opt (fun f -> String.equal f.id id) (all @ heavy)
let ids () = List.map (fun f -> f.id) (all @ heavy)

let series_xs ?xs fig s =
  let xs = Option.value xs ~default:fig.xs in
  match s.cap with None -> xs | Some cap -> List.filter (fun x -> x <= cap) xs

let point_count ?xs fig =
  List.fold_left (fun n s -> n + List.length (series_xs ?xs fig s)) 0 fig.series

(* A cluster point runs its shards sequentially: it may itself be a
   Domain_pool task, and pool tasks must not nest. *)
let run_config = function
  | Single c -> Experiment.run c
  | Cluster c -> (Cluster.run c).Cluster.merged

let run ?pool ?(scale = 0.2) ?(seed = 42) ?xs ?(on_point = fun ~label:_ _ -> ()) fig =
  (* Every (series, x) point is built and seed-checked up front, then
     all of them run as one flat list: one pool map for the whole
     figure. Each point owns its engine and seed, so the parallel run
     is bit-for-bit the sequential one. *)
  let tasks =
    List.concat_map
      (fun s ->
        let tasks = List.map (fun x -> (s.label, x, s.config ~scale ~seed x)) (series_xs ?xs fig s) in
        Sweep.check_seeds_unique
          ~what:(Printf.sprintf "Figures.run %s/%s" fig.id s.label)
          (List.map
             (function
               | _, x, Single c -> (x, c.Experiment.seed)
               | _, x, Cluster c -> (x, c.Cluster.base.Experiment.seed))
             tasks);
        tasks)
      fig.series
  in
  let run_point (_, x, c) = { Sweep.x; outcome = run_config c } in
  let points =
    match pool with
    | None ->
        List.map
          (fun ((label, _, _) as task) ->
            let p = run_point task in
            on_point ~label p;
            p)
          tasks
    | Some pool ->
        (* map restores input order; on_point fires in that order only
           after all points landed. *)
        let ps = Sio_sim.Domain_pool.map pool ~f:run_point tasks in
        List.iter2 (fun (label, _, _) p -> on_point ~label p) tasks ps;
        ps
  in
  let labelled = List.combine tasks points in
  List.map
    (fun s ->
      let mine ((label, _, _), p) = if String.equal label s.label then Some p else None in
      { Report.label = s.label; points = List.filter_map mine labelled })
    fig.series

let render ppf fig series =
  Fmt.pf ppf "== %s: %s ==@." fig.id fig.title;
  Fmt.pf ppf "%s: %s@.@."
    (if String.equal fig.axis "rate" then "paper" else "expected")
    fig.expectation;
  List.iter (fun s -> Fmt.pf ppf "%a@." (Report.pp_table ~axis:fig.axis fig.columns) s) series;
  match fig.chart with
  | Reply_rate -> Report.pp_reply_rate_chart ppf series
  | Compare columns ->
      List.iteri
        (fun i col ->
          if i > 0 then Fmt.pf ppf "@.";
          Report.pp_comparison ~axis:fig.axis col ppf series)
        columns

(* The JSON sidecar: every CSV column plus the run's context, including
   the measuring host's RSS — nondeterministic, hence JSON only, never
   in a CSV or fingerprint. *)
let json ~seed ~scale fig series =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.bprintf buf fmt in
  add "{\n  \"figure\": %S,\n  \"axis\": %S,\n  \"seed\": %d,\n  \"scale\": %g,\n"
    fig.id fig.axis seed scale;
  add "  \"series\": [\n";
  List.iteri
    (fun si s ->
      add "    {\n      \"label\": %S,\n      \"points\": [\n" s.Report.label;
      List.iteri
        (fun pi p ->
          let o = p.Sweep.outcome in
          let st = o.Experiment.server_stats in
          add "        {%S: %d, \"offered_rate\": %d" fig.axis p.Sweep.x
            o.Experiment.metrics.Metrics.target_rate;
          List.iter (fun c -> add ", %S: %s" (Report.column_name c) (Report.cell c p)) fig.columns;
          add
            ", \"partial_writes\": %d, \"bytes_sent\": %d, \"kernel_mem_peak_bytes\": %d, \"host_rss_bytes\": %d}%s\n"
            st.Sio_httpd.Server_stats.partial_writes st.Sio_httpd.Server_stats.bytes_sent
            o.Experiment.kernel_mem_peak o.Experiment.host_rss_bytes
            (if pi = List.length s.Report.points - 1 then "" else ","))
        s.Report.points;
      add "      ]\n    }%s\n" (if si = List.length series - 1 then "" else ","))
    series;
  add "  ]\n}\n";
  Buffer.contents buf
