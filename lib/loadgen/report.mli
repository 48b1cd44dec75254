(** Text rendering of sweep results: the same rows the paper's figures
    plot, plus simple ASCII curves for eyeballing shapes in a
    terminal. *)

type series = { label : string; points : Sweep.point list }

(** The per-point quantities a figure can report. Every constructor is
    a deterministic function of the point's seed: host-side
    measurements (RSS, wall time) have no constructor, so they cannot
    reach a CSV. *)
type column =
  | Avg  (** average reply rate, replies/s *)
  | Sd
  | Min
  | Max
  | Err_percent  (** errors, percent of attempted connections *)
  | Median_ms  (** median connection time *)
  | P50_ms
  | P99_ms  (** connection-time tail: where accept steering shows *)
  | Attempted
  | Completed
  | Kernel_bytes
      (** peak modeled kernel memory reserved for sockets during the
          run *)
  | Mbit_s
      (** achieved wire throughput: [Avg] times the full response
          size (headers + body), where the point's x value is the
          response body size in bytes *)

val reply_stats : column list
(** [Avg; Sd; Min; Max; Err_percent]: the block every figure leads
    with. *)

val counts : column list
(** [Attempted; Completed]. *)

val column_name : column -> string
(** The CSV header of the column. *)

val cell : column -> Sweep.point -> string
(** The column's CSV cell for one point. *)

val pp_table : axis:string -> column list -> Format.formatter -> series -> unit
(** The series label, then one row per point: the x value under
    [axis], then every column that has a terminal form
    ([Attempted]/[Completed] are CSV-only). *)

val pp_reply_rate_chart : Format.formatter -> ?height:int -> series list -> unit
(** ASCII chart of average reply rate vs target rate for several
    series overlaid (each series gets a distinct glyph). *)

val pp_comparison : axis:string -> column -> Format.formatter -> series list -> unit
(** One column of every series side by side, one row per x value
    (Figure 10's error percent, Figure 14's median latency). A series
    shorter than the longest shows ["-"] in the cells it skipped. *)

val pp_counters : Format.formatter -> Sweep.point -> unit
(** Kernel/server counter dump for one point (hints, driver polls,
    overflows, ...). *)

val csv_of_series : axis:string -> column list -> series -> string
(** The series as CSV for external plotting tools: a header ([axis],
    then each column's name) and one row per point. *)
