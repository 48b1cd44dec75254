open Sio_sim

type errors = {
  mutable timeouts : int;
  mutable refused : int;
  mutable resets : int;
  mutable fd_limited : int;
  mutable port_limited : int;
  mutable truncated : int;
}

let total_errors e =
  e.timeouts + e.refused + e.resets + e.fd_limited + e.port_limited + e.truncated

type t = {
  target_rate : int;
  attempted : int;
  completed : int;
  errors : errors;
  reply_rate_avg : float;
  reply_rate_sd : float;
  reply_rate_min : float;
  reply_rate_max : float;
  error_percent : float;
  latency : Histogram.t;
  duration : Time.t;
}

let make ~target_rate ~attempted ~completed ~errors ~latency ~duration rates =
  let stats = Stats.create () in
  List.iter (Stats.add stats) rates;
  (* Short runs (under one sampling interval) have no complete
     interval: fall back to the run-wide average so tiny test
     workloads still report a meaningful rate. *)
  if Stats.count stats = 0 && completed > 0 then begin
    let duration_s = Time.to_sec_f duration in
    if duration_s > 0. then Stats.add stats (float_of_int completed /. duration_s)
  end;
  let have = Stats.count stats > 0 in
  {
    target_rate;
    attempted;
    completed;
    errors;
    reply_rate_avg = (if have then Stats.mean stats else 0.);
    reply_rate_sd = (if have then Stats.stddev stats else 0.);
    reply_rate_min = (if have then Stats.min stats else 0.);
    reply_rate_max = (if have then Stats.max stats else 0.);
    error_percent =
      (if attempted = 0 then 0.
       else 100. *. float_of_int (total_errors errors) /. float_of_int attempted);
    latency;
    duration;
  }

let median_latency_ms t =
  if Histogram.count t.latency = 0 then 0.
  else Time.to_ms_f (Histogram.median t.latency)

let pp_row_header ppf () =
  Fmt.pf ppf "%6s  %8s  %8s  %8s  %8s  %7s  %9s" "rate" "avg" "sd" "min" "max"
    "err%" "median_ms"

let pp_row ppf t =
  Fmt.pf ppf "%6d  %8.1f  %8.1f  %8.1f  %8.1f  %7.2f  %9.2f" t.target_rate
    t.reply_rate_avg t.reply_rate_sd t.reply_rate_min t.reply_rate_max
    t.error_percent (median_latency_ms t)
