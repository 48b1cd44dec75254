(* Rendering smoke tests for the report layer (and the metric helpers
   it prints). *)

open Sio_sim
open Sio_loadgen

let mk_metrics ~rate ~avg ~err ~median_ms =
  let latency = Histogram.create () in
  Histogram.add latency (Time.of_sec_f (median_ms /. 1000.));
  {
    Metrics.target_rate = rate;
    attempted = 1000;
    completed = 900;
    errors =
      {
        Metrics.timeouts = 40;
        refused = 20;
        resets = 10;
        fd_limited = 0;
        port_limited = 0;
        truncated = 30;
      };
    reply_rate_avg = avg;
    reply_rate_sd = 5.;
    reply_rate_min = avg -. 10.;
    reply_rate_max = avg +. 10.;
    error_percent = err;
    latency;
    duration = Time.s 10;
  }

let mk_point rate =
  let metrics = mk_metrics ~rate ~avg:(float_of_int rate) ~err:10. ~median_ms:5. in
  {
    Sweep.x = rate;
    outcome =
      {
        Experiment.metrics;
        server_stats = Sio_httpd.Server_stats.create ();
        host_counters = Sio_kernel.Host.fresh_counters ();
        cpu_utilization = 0.5;
        inactive_established = 251;
        inactive_reopens = 0;
        final_mode = "devpoll";
        kernel_mem_peak = 0;
        host_rss_bytes = 0;
      };
  }

let render f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let series = { Report.label = "test-series"; points = [ mk_point 500; mk_point 600 ] }

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let test_total_errors () =
  let m = mk_metrics ~rate:500 ~avg:450. ~err:10. ~median_ms:5. in
  Alcotest.(check int) "sums all classes" 100 (Metrics.total_errors m.Metrics.errors)

let test_median_latency_ms () =
  let m = mk_metrics ~rate:500 ~avg:450. ~err:10. ~median_ms:5. in
  Alcotest.(check bool) "about 5ms" true (abs_float (Metrics.median_latency_ms m -. 5.) < 0.5)

let test_pp_table () =
  let out =
    render (fun ppf ->
        Report.pp_table ~axis:"rate" Report.(reply_stats @ [ Median_ms ]) ppf series)
  in
  Alcotest.(check bool) "label" true (contains out "test-series");
  Alcotest.(check bool) "header" true (contains out "median_ms");
  Alcotest.(check bool) "row 500" true (contains out "500");
  Alcotest.(check bool) "row 600" true (contains out "600")

let test_pp_chart () =
  let out = render (fun ppf -> Report.pp_reply_rate_chart ppf [ series ]) in
  Alcotest.(check bool) "axis label" true (contains out "target rate");
  Alcotest.(check bool) "legend" true (contains out "test-series");
  Alcotest.(check bool) "glyph plotted" true (contains out "*")

let test_pp_comparisons () =
  let compare col = render (fun ppf -> Report.pp_comparison ~axis:"rate" col ppf [ series ]) in
  let err = compare Report.Err_percent in
  Alcotest.(check bool) "error header" true (contains err "errors in percent");
  let lat = compare Report.Median_ms in
  Alcotest.(check bool) "latency header" true (contains lat "median connection time")

let suite =
  [
    Alcotest.test_case "total_errors sums the classes" `Quick test_total_errors;
    Alcotest.test_case "median_latency_ms" `Quick test_median_latency_ms;
    Alcotest.test_case "pp_table" `Quick test_pp_table;
    Alcotest.test_case "pp_reply_rate_chart" `Quick test_pp_chart;
    Alcotest.test_case "pp comparisons" `Quick test_pp_comparisons;
  ]
