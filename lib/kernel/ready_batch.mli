(** One wait's results: parallel columns of descriptors and their
    ready masks, plus the RT-signal overflow flag.

    Each notification instance owns one batch and refills it on every
    wait (the reusable-buffer idiom of {!Sio_sim.Ready_buffer}, with
    int columns instead of per-result records), so reporting results
    allocates nothing once the columns have grown to the instance's
    batch size. A batch handed to a wait continuation is valid until
    the next wait on the same instance. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** [initial_capacity] defaults to 16; the columns double as needed. *)

val clear : t -> unit
(** Empty the batch and drop the overflow flag; O(1). *)

val push : t -> int -> Pollmask.t -> unit
(** [push b fd mask] appends one result, amortized O(1). *)

val length : t -> int

val fd : t -> int -> int
(** [fd b i] is the [i]th result's descriptor. Raises
    [Invalid_argument] when [i] is out of bounds. *)

val mask : t -> int -> Pollmask.t
(** [mask b i] is the [i]th result's ready mask (for RT signals, the
    poll band). Raises [Invalid_argument] when [i] is out of bounds. *)

val set_mask : t -> int -> Pollmask.t -> unit

val overflowed : t -> bool
(** The RT-signal queue overflowed (SIGIO) ahead of this batch's
    signals: the paper's cue to recover with poll(). *)

val set_overflow : t -> unit

val reverse : t -> unit
(** Reverse the result order in place. *)

val to_list : t -> (int * Pollmask.t) list
(** The results in order, freshly allocated: for tests and printing,
    not for the request path. *)
