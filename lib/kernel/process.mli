(** A simulated process (or Linux thread — which is a process with its
    own pid, as the paper notes when discussing phhttpd's signal
    worker and its poll sibling).

    Owns a descriptor table and an RT-signal queue. All processes on
    one host share the host's CPU. *)

type resource = Sock of Socket.t | Dev of Devpoll.t

type t

val create :
  host:Host.t -> ?fd_limit:int -> ?rt_queue_limit:int -> name:string -> unit -> t
(** Defaults: 1024 descriptors, 1024 queued RT signals. *)

val name : t -> string
val host : t -> Host.t

val fds : t -> resource Fd_table.t
(** The descriptor table, for reads; descriptors are opened with
    {!install_socket} (or {!Fd_table.alloc} for a /dev/poll) and closed
    with {!close_fd}. *)

val rt_queue : t -> Rt_signal.queue

val lookup_socket : t -> int -> Socket.t option
(** Resolves an fd to a socket, [None] for closed descriptors and for
    /dev/poll descriptors. Allocates nothing: the option is stored at
    {!install_socket}. *)

val lookup_devpoll : t -> int -> Devpoll.t option

val install_socket : t -> Socket.t -> (int, [ `Emfile ]) result
(** Allocates a descriptor for the socket (used by accept and by the
    listener setup). *)

val close_fd : t -> int -> resource option
(** Releases a descriptor, returning what it named. *)

val open_fd_count : t -> int
