(* Tests of the figure harness itself: the catalogue is complete, a
   tiny run produces sane series, every figure's CSV text is pinned at
   a tiny setting, and the CLI refuses options that do not fit a
   figure's axis. *)

let test_catalog_complete () =
  let ids = Scalanio.Figures.ids () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n ids))
    [ "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12";
      "fig13"; "fig14"; "hybrid"; "hybrid-latency"; "lineage"; "idle-scaling";
      "response-size"; "shard-scaling" ];
  Alcotest.(check int) "17 catalogue ids" 17 (List.length ids);
  Alcotest.(check bool) "find works" true (Scalanio.Figures.find "fig10" <> None);
  Alcotest.(check bool) "heavy figures found" true
    (Scalanio.Figures.find "shard-scaling" <> None);
  Alcotest.(check bool) "ablation runs with shard-scaling, not listed" true
    (Scalanio.Figures.find "shard-ablation" = None);
  Alcotest.(check bool) "unknown misses" true (Scalanio.Figures.find "fig99" = None)

let test_every_figure_has_expectation () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f.Scalanio.Figures.id ^ " has expectation")
        true
        (String.length f.Scalanio.Figures.expectation > 20);
      Alcotest.(check bool)
        (f.Scalanio.Figures.id ^ " has series")
        true
        (f.Scalanio.Figures.series <> []);
      Alcotest.(check bool)
        (f.Scalanio.Figures.id ^ " has x values")
        true
        (f.Scalanio.Figures.xs <> []))
    Scalanio.Figures.(all @ heavy @ [ shard_ablation ] @ ablations)

let test_tiny_run_produces_series () =
  match Scalanio.Figures.find "fig5" with
  | None -> Alcotest.fail "fig5 missing"
  | Some fig -> (
      let series = Scalanio.Figures.run ~scale:0.01 ~xs:[ 600 ] fig in
      match series with
      | [ s ] -> (
          Alcotest.(check string) "label kept" "thttpd+devpoll i=1" s.Sio_loadgen.Report.label;
          match s.Sio_loadgen.Report.points with
          | [ p ] ->
              Alcotest.(check int) "rate" 600 p.Sio_loadgen.Sweep.x;
              Alcotest.(check bool) "replies happened" true
                (p.Sio_loadgen.Sweep.outcome.Sio_loadgen.Experiment.metrics
                   .Sio_loadgen.Metrics.completed > 0)
          | _ -> Alcotest.fail "expected one point")
      | _ -> Alcotest.fail "expected one series")

let test_render_does_not_raise () =
  match Scalanio.Figures.find "fig14" with
  | None -> Alcotest.fail "fig14 missing"
  | Some fig ->
      let series = Scalanio.Figures.run ~scale:0.01 ~xs:[ 500 ] fig in
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Scalanio.Figures.render ppf fig series;
      Format.pp_print_flush ppf ();
      Alcotest.(check bool) "rendered something" true (Buffer.length buf > 100)

(* Golden CSVs: the full CSV text of every catalogue figure at a tiny
   setting, pinned byte for byte. One rate per rate-axis figure at
   scale 0.01, idle-scaling at [1; 51], response-size at [1024], and
   shard-scaling with its steering ablation at [1; 2] and scale 0.02. *)
let golden_csvs =
  [
    ("fig4/thttpd+poll i=1",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.50,0.71,600.00,601.00,0.00,1.000,1800,1800\n");
    ("fig5/thttpd+devpoll i=1",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.50,0.71,600.00,601.00,0.00,0.950,1800,1800\n");
    ("fig6/thttpd+poll i=251",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,598.00,2.83,596.00,600.00,0.00,13.600,1800,1800\n");
    ("fig7/thttpd+devpoll i=251",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.00,0.00,600.00,600.00,0.00,1.600,1800,1800\n");
    ("fig8/thttpd+poll i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,451.00,33.94,427.00,475.00,0.00,524.800,1800,1800\n");
    ("fig9/thttpd+devpoll i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.00,0.00,600.00,600.00,0.00,2.900,1800,1800\n");
    ("fig10/poll i=251",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,598.00,2.83,596.00,600.00,0.00,13.600,1800,1800\n");
    ("fig10/devpoll i=251",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.00,0.00,600.00,600.00,0.00,1.600,1800,1800\n");
    ("fig10/poll i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,451.00,33.94,427.00,475.00,0.00,524.800,1800,1800\n");
    ("fig10/devpoll i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.00,0.00,600.00,600.00,0.00,2.900,1800,1800\n");
    ("fig11/phhttpd i=1",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.50,0.71,600.00,601.00,0.00,0.950,1800,1800\n");
    ("fig12/phhttpd i=251",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,599.00,2.83,597.00,601.00,0.00,6.100,1800,1800\n");
    ("fig13/phhttpd i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,432.00,14.14,422.00,442.00,22.17,204.800,1800,1401\n");
    ("fig14/devpoll",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.00,0.00,600.00,600.00,0.00,1.600,1800,1800\n");
    ("fig14/normal poll",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,598.00,2.83,596.00,600.00,0.00,13.600,1800,1800\n");
    ("fig14/phhttpd",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,599.00,2.83,597.00,601.00,0.00,6.100,1800,1800\n");
    ("hybrid/hybrid i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.50,0.71,600.00,601.00,0.00,0.950,1800,1800\n");
    ("hybrid/phhttpd i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,432.00,14.14,422.00,442.00,22.17,204.800,1800,1401\n");
    ("hybrid/devpoll i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.00,0.00,600.00,600.00,0.00,2.900,1800,1800\n");
    ("hybrid-latency/hybrid",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.50,0.71,600.00,601.00,0.00,0.950,1800,1800\n");
    ("hybrid-latency/devpoll",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.00,0.00,600.00,600.00,0.00,1.600,1800,1800\n");
    ("hybrid-latency/phhttpd",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,599.00,2.83,597.00,601.00,0.00,6.100,1800,1800\n");
    ("lineage/select i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,565.00,8.49,559.00,571.00,0.00,97.600,1800,1800\n");
    ("lineage/poll i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,451.00,33.94,427.00,475.00,0.00,524.800,1800,1800\n");
    ("lineage/devpoll i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.00,0.00,600.00,600.00,0.00,2.900,1800,1800\n");
    ("lineage/epoll i=501",
     "rate,avg,sd,min,max,err_percent,median_ms,attempted,completed\n600,600.50,0.71,600.00,601.00,0.00,0.950,1800,1800\n");
    ("idle-scaling/poll",
     "idle,avg,sd,min,max,err_percent,median_ms,attempted,completed,kernel_bytes\n1,500.00,0.00,500.00,500.00,0.00,1.000,1500,1500,1320960\n51,500.00,0.00,500.00,500.00,0.00,3.300,1500,1500,8057856\n");
    ("idle-scaling/devpoll",
     "idle,avg,sd,min,max,err_percent,median_ms,attempted,completed,kernel_bytes\n1,500.00,0.00,500.00,500.00,0.00,0.950,1500,1500,1320960\n51,500.00,0.00,500.00,500.00,0.00,1.000,1500,1500,7925760\n");
    ("idle-scaling/epoll",
     "idle,avg,sd,min,max,err_percent,median_ms,attempted,completed,kernel_bytes\n1,500.00,0.00,500.00,500.00,0.00,0.950,1500,1500,1320960\n51,500.00,0.00,500.00,500.00,0.00,0.950,1500,1500,7925760\n");
    ("response-size/copy",
     "body_bytes,avg,sd,min,max,err_percent,median_ms,attempted,completed,mbit_s\n1024,1400.00,0.00,1400.00,1400.00,0.00,7.600,350,350,12.43\n");
    ("response-size/sendfile",
     "body_bytes,avg,sd,min,max,err_percent,median_ms,attempted,completed,mbit_s\n1024,1400.00,0.00,1400.00,1400.00,0.00,5.400,350,350,12.43\n");
    ("response-size/ring",
     "body_bytes,avg,sd,min,max,err_percent,median_ms,attempted,completed,mbit_s\n1024,1400.00,0.00,1400.00,1400.00,0.00,11.400,350,350,12.43\n");
    ("response-size/selective",
     "body_bytes,avg,sd,min,max,err_percent,median_ms,attempted,completed,mbit_s\n1024,1400.00,0.00,1400.00,1400.00,0.00,11.800,350,350,12.43\n");
    ("shard-scaling/poll",
     "shards,avg,sd,min,max,err_percent,p50_ms,p99_ms,attempted,completed\n1,0.00,0.00,0.00,0.00,100.00,0.000,0.000,3200,0\n2,0.00,0.00,0.00,0.00,100.00,0.000,0.000,3200,0\n");
    ("shard-scaling/devpoll",
     "shards,avg,sd,min,max,err_percent,p50_ms,p99_ms,attempted,completed\n1,5172.00,0.00,5172.00,5172.00,19.19,1433.600,4915.200,3200,2586\n2,6400.00,0.00,6400.00,6400.00,0.00,588.800,1945.600,3200,3200\n");
    ("shard-scaling/epoll",
     "shards,avg,sd,min,max,err_percent,p50_ms,p99_ms,attempted,completed\n1,6400.00,0.00,6400.00,6400.00,0.00,1331.200,2611.200,3200,3200\n2,6400.00,0.00,6400.00,6400.00,0.00,486.400,1305.600,3200,3200\n");
    ("shard-ablation/hash",
     "shards,avg,sd,min,max,err_percent,p50_ms,p99_ms,attempted,completed\n1,6400.00,0.00,6400.00,6400.00,0.00,1331.200,2611.200,3200,3200\n2,6400.00,0.00,6400.00,6400.00,0.00,486.400,1612.800,3200,3200\n");
    ("shard-ablation/round-robin",
     "shards,avg,sd,min,max,err_percent,p50_ms,p99_ms,attempted,completed\n1,6400.00,0.00,6400.00,6400.00,0.00,1331.200,2611.200,3200,3200\n2,6400.00,0.00,6400.00,6400.00,0.00,524.800,1228.800,3200,3200\n");
    ("shard-ablation/least-loaded",
     "shards,avg,sd,min,max,err_percent,p50_ms,p99_ms,attempted,completed\n1,6400.00,0.00,6400.00,6400.00,0.00,1331.200,2611.200,3200,3200\n2,6400.00,0.00,6400.00,6400.00,0.00,524.800,1228.800,3200,3200\n");
  ]

(* Every ablation series, pinned the same way at scale 0.01, each spec
   at its own operating point. A variant whose row differs from its
   base point's row fails this test if its transform is lost. *)
let golden_ablation_csvs =
  [
    ("hints/hints on",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n900,900.00,0.00,900.00,900.00,0.00,10.598,2701,425251\n");
    ("hints/hints off",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n900,900.00,0.00,900.00,900.00,0.00,16.432,80447,0\n");
    ("event-bound/max 2 events/iter",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n900,900.00,0.00,900.00,900.00,0.00,51.425,263862,0\n");
    ("event-bound/max 8 events/iter",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n900,900.00,0.00,900.00,900.00,0.00,18.126,78465,0\n");
    ("event-bound/max 32 events/iter",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n900,900.00,0.00,900.00,900.00,0.00,14.637,59004,0\n");
    ("event-bound/max 1024 events/iter",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n900,900.00,0.00,900.00,900.00,0.00,14.637,59004,0\n");
    ("sendfile/write()",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n1100,1100.00,0.00,1100.00,1100.00,0.00,3.814,703,357\n");
    ("sendfile/sendfile()",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n1100,1100.00,0.00,1100.00,1100.00,0.00,3.557,1110,943\n");
    ("mmap/mmap (end to end)",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n900,900.00,0.00,900.00,900.00,0.00,10.598,2701,425251\n");
    ("mmap/copy-out (end to end)",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n900,900.00,0.00,900.00,900.00,0.00,10.601,2701,425251\n");
    ("wake-policy/wake all",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n700,700.00,0.00,700.00,700.00,0.00,14.078,57863,0\n");
    ("wake-policy/wake one",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n700,700.00,0.00,700.00,700.00,0.00,14.078,57863,0\n");
    ("phhttpd-mechanisms/stock phhttpd",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n700,700.00,0.00,700.00,700.00,0.00,16.788,0,0\n");
    ("phhttpd-mechanisms/no conn-table walk",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n700,700.00,0.00,700.00,700.00,0.00,5.004,0,0\n");
    ("phhttpd-mechanisms/no timeout sweep",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips\n700,700.00,0.00,700.00,700.00,0.00,16.788,0,0\n");
    ("hybrid-batch/batch 1",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips,mode_switches\n1000,1000.00,0.00,1000.00,1000.00,0.00,4.097,0,0,0\n");
    ("hybrid-batch/batch 8",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips,mode_switches\n1000,1000.00,0.00,1000.00,1000.00,0.00,4.082,0,0,0\n");
    ("hybrid-batch/batch 32",
     "rate,avg,sd,min,max,err_percent,cpu_percent,driver_polls,hint_skips,mode_switches\n1000,1000.00,0.00,1000.00,1000.00,0.00,4.082,0,0,0\n");
    ("docsize/poll",
     "doc_bytes,avg,sd,min,max,err_percent,median_ms\n1024,500.00,0.00,500.00,500.00,0.00,9.000\n6144,500.00,0.00,500.00,500.00,0.00,11.400\n16384,500.00,0.00,500.00,500.00,0.00,17.200\n");
    ("docsize/devpoll",
     "doc_bytes,avg,sd,min,max,err_percent,median_ms\n1024,500.00,0.00,500.00,500.00,0.00,1.000\n6144,500.00,0.00,500.00,500.00,0.00,1.400\n16384,500.00,0.00,500.00,500.00,0.00,3.500\n");
    ("internet-mix/LAN clients (the paper's)",
     "rate,avg,sd,min,max,err_percent,median_ms\n700,700.00,0.00,700.00,700.00,0.00,2.400\n");
    ("internet-mix/WAN clients (80ms +- 60ms)",
     "rate,avg,sd,min,max,err_percent,median_ms\n700,700.00,0.00,700.00,700.00,0.00,435.200\n");
    ("internet-mix/modem clients (Pareto 120ms+)",
     "rate,avg,sd,min,max,err_percent,median_ms\n700,666.00,0.00,666.00,666.00,4.86,716.800\n")
  ]

let csvs ?scale ?xs fig =
  List.map
    (fun s ->
      ( fig.Scalanio.Figures.id ^ "/" ^ s.Sio_loadgen.Report.label,
        Sio_loadgen.Report.csv_of_series ~axis:fig.Scalanio.Figures.axis
          fig.Scalanio.Figures.columns s ))
    (Scalanio.Figures.run ?scale ?xs fig)

let tiny_csvs () =
  let open Scalanio.Figures in
  List.concat_map (fun fig -> csvs ~scale:0.01 ~xs:[ List.nth fig.xs 2 ] fig) all
  @ csvs ~xs:[ 1; 51 ] idle_scaling
  @ csvs ~scale:0.01 ~xs:[ 1024 ] response_size
  @ csvs ~scale:0.02 ~xs:[ 1; 2 ] shard_scaling
  @ csvs ~scale:0.02 ~xs:[ 1; 2 ] shard_ablation

let check_golden golden got =
  Alcotest.(check (list string)) "figure/series names" (List.map fst golden)
    (List.map fst got);
  List.iter2 (fun (name, want) (_, csv) -> Alcotest.(check string) name want csv) golden got

let test_golden_csvs () = check_golden golden_csvs (tiny_csvs ())

let test_golden_ablation_csvs () =
  check_golden golden_ablation_csvs
    (List.concat_map (csvs ~scale:0.01) Scalanio.Figures.ablations)

(* [--rates] sets request rates, so it must refuse a figure whose x
   axis is something else rather than silently run that figure's
   default axis. *)
let sio_figures args =
  let err = Filename.temp_file "sio_figures" ".err" in
  let code =
    Sys.command
      (Filename.quote_command "../bin/sio_figures.exe" ~stdout:Filename.null ~stderr:err
         args)
  in
  let ic = open_in err in
  let msg = In_channel.input_all ic in
  close_in ic;
  Sys.remove err;
  (code, msg)

let test_rates_off_rate_axis_rejected () =
  let contains hay needle =
    let n = String.length needle in
    let rec at i = i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun names ->
      let code, msg =
        sio_figures (names @ [ "--scale"; "0.001"; "--rates"; "500:600:100"; "-q" ])
      in
      let what = String.concat " " names in
      Alcotest.(check int) (what ^ ": exit 1") 1 code;
      Alcotest.(check bool) (what ^ ": names the axis") true (contains msg "body_bytes"))
    [ [ "response-size" ]; [ "fig5"; "response-size" ] ];
  let code, _ = sio_figures [ "fig5"; "--scale"; "0.01"; "--rates"; "600:600:50"; "-q" ] in
  Alcotest.(check int) "rate-axis figure accepts --rates" 0 code

let suite =
  [
    Alcotest.test_case "catalog complete" `Quick test_catalog_complete;
    Alcotest.test_case "expectations recorded" `Quick test_every_figure_has_expectation;
    Alcotest.test_case "tiny run produces series" `Slow test_tiny_run_produces_series;
    Alcotest.test_case "render" `Slow test_render_does_not_raise;
    Alcotest.test_case "golden CSVs" `Slow test_golden_csvs;
    Alcotest.test_case "golden ablation CSVs" `Slow test_golden_ablation_csvs;
    Alcotest.test_case "--rates rejected off the rate axis" `Quick
      test_rates_off_rate_axis_rejected;
  ]
