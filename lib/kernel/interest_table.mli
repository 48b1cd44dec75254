(** The /dev/poll interest-set hash table.

    Faithful to the paper's description: open hashing over file
    descriptors, where "for simplicity, when the average bucket size
    is two, the number of buckets in the hash table is doubled. The
    hash table is never shrunk."

    Each interest carries the subscribed event mask plus the two
    pieces of per-interest state the hinting scheme needs: the hint
    bits posted by drivers since the last scan, and the cached result
    of the last driver poll callback. *)

type interest = {
  fd : int;
  mutable events : Pollmask.t;  (** subscribed events *)
  mutable hint : Pollmask.t;  (** driver-posted bits since last scan *)
  mutable cached : Pollmask.t;
      (** last driver callback result, meaningful while [cache_valid] *)
  mutable cache_valid : bool;
  mutable active : bool;
      (** not idle-certified: the next DP_POLL scan must probe it (see
          {!Devpoll.active_fds}) *)
}

type t

val create : ?initial_buckets:int -> unit -> t
(** Default 8 buckets. Raises [Invalid_argument] if not positive. *)

val length : t -> int
val bucket_count : t -> int

val find : t -> int -> interest option

val set : t -> fd:int -> events:Pollmask.t -> [ `Added | `Modified ]
(** Insert or replace. Following the paper's Linux semantics, the new
    events mask {e replaces} the previous one (Solaris ORs instead);
    replacing resets hint and cache, since the driver must be
    re-consulted. Doubles the bucket array when mean occupancy
    reaches 2. *)

val set_solaris : t -> fd:int -> events:Pollmask.t -> [ `Added | `Modified ]
(** Solaris-compatible variant: ORs into the existing mask. *)

val remove : t -> int -> bool
(** False when the fd was not present. *)

val iter : t -> (interest -> unit) -> unit
(** Iterates in unspecified order. *)

val iter_while : t -> f:('a -> interest -> bool) -> 'a -> unit
(** [iter_while t ~f x] visits interests (same order as {!iter}),
    calling [f x interest], until
    [f] answers [false] — the early exit DP_POLL needs once its
    result buffer is full, instead of walking the rest of the table. *)

val fold : t -> init:'a -> f:('a -> interest -> 'a) -> 'a
val mean_bucket_occupancy : t -> float
