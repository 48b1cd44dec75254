(** Per-process file descriptor table.

    POSIX semantics: allocation always returns the lowest free
    descriptor, tables have a hard size limit (the paper wrestles with
    httperf's 1024-fd assumption), and closing frees the slot for
    immediate reuse — which is precisely what makes stale RT signals
    dangerous: a new connection can receive an old connection's fd. *)

type 'a t

val create : ?limit:int -> unit -> 'a t
(** Default limit 1024, as on Linux 2.2. Raises [Invalid_argument] if
    the limit is not positive. *)

val limit : 'a t -> int

val alloc : 'a t -> 'a -> (int, [ `Emfile ]) result
(** Lowest-numbered free descriptor, or [`Emfile] when the table is
    full. *)

val find : 'a t -> int -> 'a option
val find_exn : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
(** Replaces the resource at an open descriptor. Raises
    [Invalid_argument] if the descriptor is not open. *)

val close : 'a t -> int -> 'a option
(** Frees the descriptor, returning the resource that occupied it. *)

val is_open : 'a t -> int -> bool
val count : 'a t -> int

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Visits open descriptors in ascending fd order (backed by
    {!Sio_sim.Fd_map}): deterministic, a function of the open set
    alone. Removal of the current or any later descriptor from inside
    the callback is well-defined. *)

val fold : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b
(** Ascending-fd fold; same ordering guarantee as {!iter}. *)
