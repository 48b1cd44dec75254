(** poll()/pollfd event bitmasks.

    Mirrors the Linux 2.2 [<poll.h>] constants used throughout the
    paper, including the Solaris-style [POLLREMOVE] extension that the
    /dev/poll write interface uses to delete an interest. *)

type t = private int

val empty : t
val pollin : t
val pollpri : t
val pollout : t
val pollerr : t
val pollhup : t
val pollnval : t

val pollremove : t
(** Solaris /dev/poll extension: written in the [events] field to
    remove the descriptor from the interest set. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val mem : t -> t -> bool
(** [mem flag mask] is true when every bit of [flag] is set in
    [mask]. *)

val intersects : t -> t -> bool
(** [intersects a b] is true when the masks share at least one bit. *)

val is_empty : t -> bool
val equal : t -> t -> bool

val readable : t
(** [pollin] u [pollpri]: the bits a reader waits for. *)

val forced : t
(** [pollerr] u [pollhup] u [pollnval]: reported whether or not
    subscribed, per POSIX. *)

val of_int : int -> t
(** Raises [Invalid_argument] if unknown bits are set. *)

val to_int : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
