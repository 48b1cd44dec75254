(* Document-size sensitivity: the paper's Section 5 observes that
   "larger documents cause sockets and their corresponding file
   descriptors to remain active over a longer time period. As a result
   the web server and kernel have to examine a larger set of
   descriptors, making the amortized cost of polling on a single file
   descriptor larger." This bench sweeps the document size at a fixed
   rate and idle load and shows exactly that: poll's per-request cost
   grows with size much faster than /dev/poll's. *)

open Sio_loadgen
module Figures = Scalanio.Figures

let devpoll = Experiment.Thttpd_devpoll { use_mmap = true; max_events = 64 }

(* The document size is the x axis; each size gets its own derived
   seed, like every figure's points. *)
let figure =
  let series label kind =
    {
      Figures.label;
      cap = None;
      config =
        (fun ~scale ~seed doc_bytes ->
          let workload =
            Workload.scaled
              {
                Workload.default with
                Workload.request_rate = 500;
                inactive_connections = 251;
                doc_bytes;
              }
              scale
          in
          Figures.Single
            {
              (Experiment.default_config ~kind ~workload) with
              Experiment.seed = Sio_sim.Rng.derive ~seed doc_bytes;
            });
    }
  in
  {
    Figures.id = "docsize";
    title = "Document size sensitivity (500 req/s, 251 idle connections)";
    expectation =
      "Paper section 5: bigger documents keep descriptors active longer, \
       inflating the amortized cost of polling each one; poll's per-request \
       cost grows with size much faster than /dev/poll's.";
    axis = "doc_bytes";
    xs = [ 1_024; 6_144; 16_384 ];
    series = [ series "poll" Experiment.Thttpd_poll; series "devpoll" devpoll ];
    columns = Report.(reply_stats @ [ Median_ms ]);
    chart = Figures.Compare [ Report.Avg; Report.Median_ms ];
  }

let run ppf ~scale =
  Figures.render ppf figure (Figures.run ~scale figure);
  Fmt.pf ppf "@."

(* An "Internet mix": the opening claim of the paper is that 32 fast
   LAN clients and 32,000 slow Internet clients are very different
   loads. Here the *active* clients get WAN/modem latency and the
   latency distribution shifts accordingly while throughput holds. *)
let internet_mix ppf ~scale =
  Fmt.pf ppf "== Internet mix: active-client latency profiles (devpoll, 700 req/s, 251 idle) ==@.";
  let run_profile label profile =
    let workload =
      Sio_loadgen.Workload.scaled
        {
          Workload.default with
          Workload.request_rate = 700;
          inactive_connections = 251;
          active_latency = profile;
        }
        scale
    in
    let o = Experiment.run (Experiment.default_config ~kind:devpoll ~workload) in
    Fmt.pf ppf "  %-28s avg=%7.1f/s err=%5.2f%% median=%8.2fms@." label
      o.Experiment.metrics.Metrics.reply_rate_avg
      o.Experiment.metrics.Metrics.error_percent
      (Metrics.median_latency_ms o.Experiment.metrics)
  in
  run_profile "LAN clients (the paper's)" Sio_net.Latency_profile.Lan;
  run_profile "WAN clients (80ms +- 60ms)"
    (Sio_net.Latency_profile.Wan
       { base = Sio_sim.Time.ms 80; jitter = Sio_sim.Time.ms 60 });
  run_profile "modem clients (Pareto 120ms+)" Sio_net.Latency_profile.default_modem;
  Fmt.pf ppf "@."
