(* Percentiles of a latency histogram, interpolated linearly inside the
   bucket that holds the target rank (the estimate Prometheus'
   histogram_quantile makes). [Histogram.percentile] answers with the
   bucket's upper bound, which is up to 1/32 coarse. *)

open Sio_sim

(* [Histogram]'s log-linear scheme at its default resolution, the one
   [Httperf] records with: buckets of [unit_ns] below [sub_buckets]
   units, then [sub_buckets] buckets per doubling. *)
let unit_ns = 50_000
let sub_buckets = 32

let top_bit n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* Lower edge, in ns, of the bucket that holds [v] ns. *)
let bucket_lower v =
  let u = v / unit_ns in
  let shift = Stdlib.max 0 (top_bit u - top_bit sub_buckets) in
  (u lsr shift) lsl shift * unit_ns

(* [interpolated h p] in ms. Ranks are probed through
   [Histogram.percentile] at p = 100 (k - 1/2) / n, which selects
   exactly the k-th smallest sample's bucket. That answer is the
   bucket's upper bound, or the largest sample in the last bucket. *)
let interpolated h p =
  let n = Histogram.count h in
  if n = 0 then 0.
  else begin
    let at k = Histogram.percentile h (100. *. (float_of_int k -. 0.5) /. float_of_int n) in
    let rank = Stdlib.max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
    let upper = at rank in
    (* first and last ranks in the same bucket, by bisection *)
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if at mid = upper then first lo mid else first (mid + 1) hi
    in
    let rec last lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if at mid = upper then last mid hi else last lo (mid - 1)
    in
    let a = first 1 rank and b = last rank n in
    (* an upper bound is exclusive: the bucket holds [upper - 1] *)
    let inside = if upper = Histogram.max_value h then upper else upper - 1 in
    let lower = Stdlib.max (bucket_lower inside) (Histogram.min_value h) in
    let frac = float_of_int (rank - a + 1) /. float_of_int (b - a + 1) in
    Time.to_ms_f lower +. (frac *. Time.to_ms_f (Time.sub upper lower))
  end
