(* The determinism contract of the domain-parallel runner: a sweep run
   on a Domain_pool must be bit-for-bit the sequential sweep — same
   Metrics, same counters, same order — for the reference figures the
   integration suite leans on (fig5: thttpd+devpoll, fig11: phhttpd). *)

open Sio_sim
open Sio_loadgen

let reduced_rates = [ 500; 800; 1100 ]
let scale = 0.02

let figure id =
  match Scalanio.Figures.find id with
  | Some f -> f
  | None -> Alcotest.fail (id ^ " missing from the catalog")

(* Every number the harness reports, as one comparable string. *)
let fingerprint fig series =
  String.concat "\n"
    (List.map
       (Report.csv_of_series ~axis:fig.Scalanio.Figures.axis fig.Scalanio.Figures.columns)
       series)

let check_metrics_identical ~what (a : Metrics.t) (b : Metrics.t) =
  Alcotest.(check int) (what ^ " attempted") a.Metrics.attempted b.Metrics.attempted;
  Alcotest.(check int) (what ^ " completed") a.Metrics.completed b.Metrics.completed;
  Alcotest.(check (float 0.)) (what ^ " avg") a.Metrics.reply_rate_avg b.Metrics.reply_rate_avg;
  Alcotest.(check (float 0.)) (what ^ " sd") a.Metrics.reply_rate_sd b.Metrics.reply_rate_sd;
  Alcotest.(check (float 0.)) (what ^ " min") a.Metrics.reply_rate_min b.Metrics.reply_rate_min;
  Alcotest.(check (float 0.)) (what ^ " max") a.Metrics.reply_rate_max b.Metrics.reply_rate_max;
  Alcotest.(check (float 0.)) (what ^ " err%") a.Metrics.error_percent b.Metrics.error_percent;
  Alcotest.(check int) (what ^ " errors")
    (Metrics.total_errors a.Metrics.errors)
    (Metrics.total_errors b.Metrics.errors);
  Alcotest.(check (float 0.)) (what ^ " median")
    (Metrics.median_latency_ms a) (Metrics.median_latency_ms b)

let run_figure ?pool id =
  Scalanio.Figures.run ?pool ~scale ~xs:reduced_rates (figure id)

let test_figure_bit_identical id () =
  Domain_pool.with_pool ~size:2 (fun pool ->
      let seq = run_figure id in
      let par = run_figure ~pool id in
      Alcotest.(check string)
        (id ^ " csv fingerprint identical")
        (fingerprint (figure id) seq)
        (fingerprint (figure id) par);
      List.iter2
        (fun (s : Report.series) (p : Report.series) ->
          Alcotest.(check string) "labels" s.Report.label p.Report.label;
          List.iter2
            (fun (sp : Sweep.point) (pp : Sweep.point) ->
              Alcotest.(check int) "rate order restored" sp.Sweep.x pp.Sweep.x;
              check_metrics_identical
                ~what:(Printf.sprintf "%s rate=%d" id sp.Sweep.x)
                sp.Sweep.outcome.Experiment.metrics pp.Sweep.outcome.Experiment.metrics;
              Alcotest.(check int) "syscalls"
                sp.Sweep.outcome.Experiment.host_counters.Sio_kernel.Host.syscalls
                pp.Sweep.outcome.Experiment.host_counters.Sio_kernel.Host.syscalls)
            s.Report.points p.Report.points)
        seq par)

(* A one-series rate figure over a small devpoll base, [min_duration_s]
   0 so the points stay tiny. *)
let small_figure =
  let base ~seed =
    {
      (Experiment.default_config
         ~kind:(Experiment.Thttpd_devpoll { use_mmap = true; max_events = 64 })
         ~workload:
           {
             Workload.default with
             Workload.total_connections = 100;
             inactive_connections = 1;
           })
      with
      Experiment.seed;
    }
  in
  {
    Scalanio.Figures.id = "small";
    title = "small";
    expectation = "";
    axis = "rate";
    xs = reduced_rates;
    series =
      [
        {
          Scalanio.Figures.label = "devpoll";
          cap = None;
          config =
            (fun ~scale:_ ~seed rate ->
              Scalanio.Figures.Single
                (Sweep.point_config ~base:(base ~seed) ~min_duration_s:0 rate));
        };
      ];
    columns = Report.reply_stats;
    chart = Scalanio.Figures.Reply_rate;
  }

let test_on_point_fires_in_rate_order () =
  Domain_pool.with_pool ~size:2 (fun pool ->
      let seen = ref [] in
      let points =
        List.concat_map
          (fun s -> s.Report.points)
          (Scalanio.Figures.run ~pool
             ~on_point:(fun ~label:_ p -> seen := p.Sweep.x :: !seen)
             small_figure)
      in
      Alcotest.(check (list int)) "on_point in rate order" reduced_rates (List.rev !seen);
      Alcotest.(check (list int)) "points in rate order" reduced_rates
        (List.map (fun p -> p.Sweep.x) points))

let test_duplicate_rate_rejected () =
  let raised =
    try
      ignore (Scalanio.Figures.run ~xs:[ 500; 600; 500 ] small_figure);
      false
    with Invalid_argument msg ->
      Alcotest.(check bool) "message names the seed clash" true
        (String.length msg > 0);
      true
  in
  Alcotest.(check bool) "duplicate rates raise before running" true raised

let test_derived_seeds_are_mixed () =
  (* seed+rate made neighbouring sweeps share points: seed 42 rate 500
     collided with seed 43 rate 499. Derivation must not. *)
  let s1 = Rng.derive ~seed:42 500 and s2 = Rng.derive ~seed:43 499 in
  Alcotest.(check bool) "no additive collision" true (s1 <> s2);
  let distinct =
    List.length
      (List.sort_uniq compare (List.map (Rng.derive ~seed:42) Sweep.paper_rates))
  in
  Alcotest.(check int) "paper rates derive 13 distinct seeds" 13 distinct;
  List.iter
    (fun r -> Alcotest.(check bool) "non-negative" true (Rng.derive ~seed:42 r >= 0))
    Sweep.paper_rates

let suite =
  [
    Alcotest.test_case "fig5 parallel == sequential" `Slow (test_figure_bit_identical "fig5");
    Alcotest.test_case "fig11 parallel == sequential" `Slow
      (test_figure_bit_identical "fig11");
    Alcotest.test_case "on_point order restored by index" `Quick
      test_on_point_fires_in_rate_order;
    Alcotest.test_case "duplicate rates rejected" `Quick test_duplicate_rate_rejected;
    Alcotest.test_case "seed derivation is mixed, not additive" `Quick
      test_derived_seeds_are_mixed;
  ]
