(** Latency histogram with percentile queries.

    Log-linear bucketing (HdrHistogram style, simplified): values are
    bucketed with bounded relative error, so median and tail queries
    stay accurate from microseconds to minutes without pre-declaring a
    range. Records {!Time.t} durations. *)

type t

val create : ?significant_ms:float -> unit -> t
(** [create ()] is an empty histogram. [significant_ms] (default 0.05)
    is the absolute resolution floor in milliseconds: below it buckets
    are linear; above it relative error stays under about 2%. *)

val add : t -> Time.t -> unit
(** Records a duration. Negative durations are clamped to zero. *)

val count : t -> int

val percentile : t -> float -> Time.t
(** [percentile t p] with [0 <= p <= 100] is the smallest recorded
    bucket upper bound below which at least [p]% of samples fall.
    Raises [Invalid_argument] when empty or [p] out of range. *)

val median : t -> Time.t
(** [median t = percentile t 50.0]. *)

val mean : t -> Time.t

val min_value : t -> Time.t
val max_value : t -> Time.t

val merge_into : dst:t -> t -> unit
(** Adds all of the source's samples into [dst]. The two histograms
    must have the same resolution. *)
