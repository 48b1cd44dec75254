(** Results of one benchmark run: exactly the quantities the paper's
    figures plot. *)

open Sio_sim

type errors = {
  mutable timeouts : int;  (** no complete response within the timeout *)
  mutable refused : int;  (** RST during handshake *)
  mutable resets : int;  (** RST after establishment *)
  mutable fd_limited : int;  (** client ran out of descriptors *)
  mutable port_limited : int;  (** client ran out of ephemeral ports *)
  mutable truncated : int;  (** server closed before the full response *)
}

val total_errors : errors -> int

type t = {
  target_rate : int;
  attempted : int;
  completed : int;
  errors : errors;
  reply_rate_avg : float;
  reply_rate_sd : float;
  reply_rate_min : float;
  reply_rate_max : float;
  error_percent : float;  (** of attempted connections, as in Fig 10 *)
  latency : Histogram.t;  (** established-to-last-byte connection times *)
  duration : Time.t;  (** measurement window *)
}

val make :
  target_rate:int ->
  attempted:int ->
  completed:int ->
  errors:errors ->
  latency:Histogram.t ->
  duration:Time.t ->
  float list ->
  t
(** The run's metrics from its per-interval reply rates over the
    measurement window [duration]. With no complete interval but some
    completions, the rate is the run-wide average instead. *)

val median_latency_ms : t -> float
(** Median connection time in milliseconds (Fig 14), 0 when no
    connection completed. *)

val pp_row_header : Format.formatter -> unit -> unit
val pp_row : Format.formatter -> t -> unit
(** One fixed-width table row per run; header/format shared with
    {!Report}. *)
