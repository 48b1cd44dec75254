(* Log-linear buckets: bucket 0 .. linear_buckets-1 are [unit] wide;
   after that each successive group of [sub_buckets] doubles the bucket
   width. Index computation is O(1) using the position of the top bit. *)

type t = {
  unit_ns : int; (* width of the finest bucket *)
  sub_buckets : int; (* buckets per doubling, power of two *)
  mutable counts : int array;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable sum : float;
}

let create ?(significant_ms = 0.05) () =
  let unit_ns = Stdlib.max 1 (int_of_float (significant_ms *. 1e6)) in
  {
    unit_ns;
    sub_buckets = 32;
    counts = Array.make 1024 0;
    total = 0;
    min_v = max_int;
    max_v = 0;
    sum = 0.;
  }

let top_bit n =
  (* Position of the highest set bit of n >= 1. *)
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* Map a value (in units) to a bucket index with <= 1/sub_buckets
   relative error. *)
let index_of t units =
  if units < t.sub_buckets then units
  else begin
    let msb = top_bit units in
    let shift = msb - top_bit t.sub_buckets in
    let group_base = t.sub_buckets * (shift + 1) in
    let within = (units lsr shift) - t.sub_buckets in
    group_base + within
  end

(* Upper bound (in units) of bucket i: inverse of [index_of]. *)
let bound_of t i =
  if i < t.sub_buckets then i + 1
  else begin
    let group = (i / t.sub_buckets) - 1 in
    let within = i mod t.sub_buckets in
    (t.sub_buckets + within + 1) lsl group
  end

let ensure t i =
  let n = Array.length t.counts in
  if i >= n then begin
    let counts = Array.make (Stdlib.max (i + 1) (2 * n)) 0 in
    Array.blit t.counts 0 counts 0 n;
    t.counts <- counts
  end

let add t dur =
  let v = Stdlib.max 0 dur in
  let units = v / t.unit_ns in
  let i = index_of t units in
  ensure t i;
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  t.sum <- t.sum +. float_of_int v

let count t = t.total

let percentile t p =
  if t.total = 0 then invalid_arg "Histogram.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile: p out of range";
  let target =
    Stdlib.max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.total)))
  in
  let rec go i acc =
    if i >= Array.length t.counts then t.max_v
    else begin
      let acc = acc + t.counts.(i) in
      if acc >= target then Stdlib.min t.max_v (bound_of t i * t.unit_ns)
      else go (i + 1) acc
    end
  in
  go 0 0

let median t = percentile t 50.0
let mean t = if t.total = 0 then 0 else int_of_float (t.sum /. float_of_int t.total)
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = t.max_v

let merge_into ~dst src =
  if dst.unit_ns <> src.unit_ns || dst.sub_buckets <> src.sub_buckets then
    invalid_arg "Histogram.merge_into: resolution mismatch";
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        ensure dst i;
        dst.counts.(i) <- dst.counts.(i) + c
      end)
    src.counts;
  dst.total <- dst.total + src.total;
  if src.total > 0 then begin
    dst.min_v <- Stdlib.min dst.min_v src.min_v;
    dst.max_v <- Stdlib.max dst.max_v src.max_v;
    dst.sum <- dst.sum +. src.sum
  end
