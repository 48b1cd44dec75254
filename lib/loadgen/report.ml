open Sio_kernel

type series = { label : string; points : Sweep.point list }

type column =
  | Avg
  | Sd
  | Min
  | Max
  | Err_percent
  | Median_ms
  | P50_ms
  | P99_ms
  | Attempted
  | Completed
  | Kernel_bytes
  | Mbit_s
  | Cpu_percent
  | Driver_polls
  | Hint_skips
  | Mode_switches

let reply_stats = [ Avg; Sd; Min; Max; Err_percent ]
let counts = [ Attempted; Completed ]

let percentile_ms m q =
  if Sio_sim.Histogram.count m.Metrics.latency = 0 then 0.
  else Sio_sim.Time.to_ms_f (Sio_sim.Histogram.percentile m.Metrics.latency q)

let value col p =
  let o = p.Sweep.outcome in
  let m = o.Experiment.metrics in
  match col with
  | Avg -> m.Metrics.reply_rate_avg
  | Sd -> m.Metrics.reply_rate_sd
  | Min -> m.Metrics.reply_rate_min
  | Max -> m.Metrics.reply_rate_max
  | Err_percent -> m.Metrics.error_percent
  | Median_ms -> Metrics.median_latency_ms m
  | P50_ms -> percentile_ms m 50.
  | P99_ms -> percentile_ms m 99.
  | Attempted -> float_of_int m.Metrics.attempted
  | Completed -> float_of_int m.Metrics.completed
  | Kernel_bytes -> float_of_int o.Experiment.kernel_mem_peak
  | Mbit_s ->
      let wire = Sio_httpd.Http.response_bytes ~body_bytes:p.Sweep.x in
      m.Metrics.reply_rate_avg *. float_of_int wire *. 8. /. 1e6
  | Cpu_percent -> 100. *. o.Experiment.cpu_utilization
  | Driver_polls -> float_of_int o.Experiment.host_counters.Host.driver_polls
  | Hint_skips -> float_of_int o.Experiment.host_counters.Host.hint_skips
  | Mode_switches -> float_of_int o.Experiment.server_stats.Sio_httpd.Server_stats.mode_switches

(* CSV header and decimals; the terminal table's header, width and
   decimals ([None]: CSV only); the comparison caption. *)
let spec = function
  | Avg -> ("avg", 2, Some ("avg", 8, 1), "avg reply rate /s")
  | Sd -> ("sd", 2, Some ("sd", 8, 1), "reply rate sd /s")
  | Min -> ("min", 2, Some ("min", 8, 1), "min reply rate /s")
  | Max -> ("max", 2, Some ("max", 8, 1), "max reply rate /s")
  | Err_percent -> ("err_percent", 2, Some ("err%", 7, 2), "errors in percent")
  | Median_ms -> ("median_ms", 3, Some ("median_ms", 9, 2), "median connection time, ms")
  | P50_ms -> ("p50_ms", 3, Some ("p50_ms", 9, 2), "p50 connection time, ms")
  | P99_ms -> ("p99_ms", 3, Some ("p99_ms", 9, 2), "p99 connection time, ms")
  | Attempted -> ("attempted", 0, None, "connections attempted")
  | Completed -> ("completed", 0, None, "connections completed")
  | Kernel_bytes ->
      ("kernel_bytes", 0, Some ("kernel_bytes", 12, 0), "peak kernel socket memory, bytes")
  | Mbit_s -> ("mbit_s", 2, Some ("Mbit/s", 9, 1), "achieved wire throughput, Mbit/s")
  | Cpu_percent -> ("cpu_percent", 3, Some ("cpu%", 6, 1), "server CPU utilization, percent")
  | Driver_polls -> ("driver_polls", 0, Some ("driver_polls", 12, 0), "driver poll callbacks")
  | Hint_skips -> ("hint_skips", 0, Some ("hint_skips", 10, 0), "poll callbacks skipped by hints")
  | Mode_switches ->
      ("mode_switches", 0, Some ("mode_switches", 13, 0), "signal/poll mode switches")

let column_name col =
  let name, _, _, _ = spec col in
  name

let cell col p =
  let _, decimals, _, _ = spec col in
  Printf.sprintf "%.*f" decimals (value col p)

let x_width axis = Stdlib.max 6 (String.length axis)

let pp_table ~axis columns ppf s =
  let shown =
    List.filter_map
      (fun col ->
        let _, _, table, _ = spec col in
        Option.map (fun (h, w, d) -> (h, w, d, col)) table)
      columns
  in
  let xw = x_width axis in
  Fmt.pf ppf "%s@." s.label;
  Fmt.pf ppf "%*s" xw axis;
  List.iter (fun (h, w, _, _) -> Fmt.pf ppf "  %*s" w h) shown;
  Fmt.pf ppf "@.";
  List.iter
    (fun p ->
      Fmt.pf ppf "%*d" xw p.Sweep.x;
      List.iter (fun (_, w, d, col) -> Fmt.pf ppf "  %*.*f" w d (value col p)) shown;
      Fmt.pf ppf "@.")
    s.points

let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@' |]

let pp_reply_rate_chart ppf ?(height = 16) series_list =
  match series_list with
  | [] -> ()
  | _ ->
      let all_points =
        List.concat_map
          (fun s ->
            List.map
              (fun p -> (p.Sweep.x, p.Sweep.outcome.Experiment.metrics.Metrics.reply_rate_avg))
              s.points)
          series_list
      in
      let max_y =
        List.fold_left (fun acc (r, v) -> Float.max acc (Float.max (float_of_int r) v)) 1. all_points
      in
      let columns =
        match series_list with
        | s :: _ -> List.map (fun p -> p.Sweep.x) s.points
        | [] -> []
      in
      let ncols = List.length columns in
      let grid = Array.make_matrix height ncols ' ' in
      List.iteri
        (fun si s ->
          let glyph = glyphs.(si mod Array.length glyphs) in
          List.iteri
            (fun ci p ->
              if ci < ncols then begin
                let v = p.Sweep.outcome.Experiment.metrics.Metrics.reply_rate_avg in
                let row =
                  height - 1 - int_of_float (v /. max_y *. float_of_int (height - 1))
                in
                let row = Stdlib.max 0 (Stdlib.min (height - 1) row) in
                grid.(row).(ci) <- glyph
              end)
            s.points)
        series_list;
      Fmt.pf ppf "reply rate (max %.0f/s)@." max_y;
      Array.iteri
        (fun i row ->
          let label =
            if i = 0 then Printf.sprintf "%6.0f |" max_y
            else if i = height - 1 then Printf.sprintf "%6.0f |" 0.
            else "       |"
          in
          Fmt.pf ppf "%s" label;
          Array.iter (fun c -> Fmt.pf ppf "  %c " c) row;
          Fmt.pf ppf "@.")
        grid;
      Fmt.pf ppf "        ";
      List.iter (fun r -> Fmt.pf ppf "%4d" r) columns;
      Fmt.pf ppf "  <- target rate@.";
      List.iteri
        (fun si s ->
          Fmt.pf ppf "  %c = %s@." glyphs.(si mod Array.length glyphs) s.label)
        series_list

let pp_comparison ~axis col ppf series_list =
  (* Rows follow the series with the most points: a capped series may
     stop short of the shared x axis, and its missing cells read "-". *)
  let longest =
    List.fold_left
      (fun acc s -> if List.length s.points > List.length acc then s.points else acc)
      [] series_list
  in
  let xw = x_width axis in
  let _, _, _, caption = spec col in
  Fmt.pf ppf "%*s" xw axis;
  List.iter (fun s -> Fmt.pf ppf "  %18s" s.label) series_list;
  Fmt.pf ppf "    (%s)@." caption;
  List.iteri
    (fun i p ->
      Fmt.pf ppf "%*d" xw p.Sweep.x;
      List.iter
        (fun s ->
          match List.nth_opt s.points i with
          | Some q -> Fmt.pf ppf "  %18.2f" (value col q)
          | None -> Fmt.pf ppf "  %18s" "-")
        series_list;
      Fmt.pf ppf "@.")
    longest

let csv_of_series ~axis columns s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (axis :: List.map column_name columns));
  Buffer.add_char buf '\n';
  List.iter
    (fun p ->
      Buffer.add_string buf
        (String.concat "," (string_of_int p.Sweep.x :: List.map (fun c -> cell c p) columns));
      Buffer.add_char buf '\n')
    s.points;
  Buffer.contents buf
