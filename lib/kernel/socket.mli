(** Simulated TCP sockets.

    A socket is the object the three event-notification mechanisms of
    the paper observe. Status changes (bytes arriving, a connection
    entering the accept queue, a peer FIN or RST, send-buffer space
    opening up) are posted as edges; each edge wakes the socket's wait
    queue (classic poll sleepers) and notifies registered observers
    (the /dev/poll backmap hint path and the RT-signal path register
    themselves here).

    Payload strings ride alongside byte counts so the HTTP layer can
    parse real request text while buffer occupancy stays a cheap
    integer.

    Representation: a socket is a thin immutable handle (arena slot +
    generation stamp) over {!Host.t}'s {!Conn_arena}; closing frees
    the slot and stales every outstanding handle, which then reads as
    [Closed]/POLLNVAL while all mutating operations on it are inert.
    Handle identity is physical and unique: the record minted at
    creation is the one stored in accept queues and fd tables, so
    [==] comparisons keep working. *)


type state =
  | Listening
  | Established
  | Peer_closed  (** peer sent FIN; reads return EOF after the buffer drains *)
  | Reset  (** connection error; reads/writes fail *)
  | Closed  (** this endpoint closed the socket *)

type t

type waiter = { wake : Pollmask.t -> unit }
(** A sleeping task registered on the socket's wait queue. Identity is
    physical: the same record must be passed to unregister. *)

val create_listening : host:Host.t -> backlog:int -> t
val create_established : host:Host.t -> t

val id : t -> int
(** Unique per-process-lifetime socket id (not the fd). *)

val state : t -> state
val host : t -> Host.t

val hints_supported : t -> bool
val set_hints_supported : t -> bool -> unit
(** Whether this socket's device driver participates in the /dev/poll
    hinting scheme (the paper lets drivers opt in so only network
    drivers need modification). Default true. *)

(** {1 Readiness} *)

val status : t -> Pollmask.t
(** Current readiness, computed for free — used internally and by
    tests. Kernel paths that model the expense of asking the driver
    must use {!driver_poll}. *)

val driver_poll : t -> Pollmask.t
(** Same answer as {!status} but charges the driver-callback cost and
    bumps the host's [driver_polls] counter. *)

(** {1 Wait queue and observers} *)

val register_waiter : t -> waiter -> unit
val unregister_waiter : t -> waiter -> bool

val subscribe : t -> (Pollmask.t -> unit) -> int
(** [subscribe s f] registers [f] to be called on each posted edge
    with the edge's event bits; returns a token for {!unsubscribe}.
    Observers model the backmapping list: posting to them charges the
    backmap read-lock cost when hints are supported. *)

val unsubscribe : t -> int -> unit

val add_watcher : t -> (unit -> unit) -> int
(** [add_watcher s f] registers a host-only callback invoked whenever
    the socket's readiness may have changed: at the top of every posted
    edge (before the wait queue wakes, so a sleeper's synchronous
    rescan already sees the watcher's effects) and when hint support is
    toggled. Watchers carry zero modeled cost — they exist so backends
    can maintain incremental ready sets without touching the charged
    observer path. Returns a token for {!remove_watcher}. *)

val remove_watcher : t -> int -> unit

type watch = (t * int) option
(** The watcher a persistent poll or select set keeps on a
    descriptor's socket, if any. *)

val unwatch : watch -> unit

val rewatch : watch -> t -> 'a Sio_sim.Fd_map.t -> int -> 'a -> watch
(** [rewatch w sock active fd v] is a watcher on [sock] that re-adds
    [fd] (bound to [v]) to [active] on any readiness edge: [w] itself
    when it already watches [sock], else a fresh one that replaces [w]
    (descriptor reuse). *)

val waiter_count : t -> int
val observer_count : t -> int

(** {1 Network-facing operations} (called by the TCP layer) *)

val deliver : t -> bytes_len:int -> payload:string -> int
(** Bytes arriving from the wire: fills the receive buffer (returns
    bytes accepted), appends payload text, charges softirq cost, posts
    POLLIN. *)

val enqueue_accept : t -> t -> bool
(** [enqueue_accept listener peer] adds an established socket to the
    listener's accept queue; false (refused) when the backlog is
    full. Posts POLLIN on success. *)

val peer_closed : t -> unit
(** FIN from the peer: posts POLLIN|POLLHUP. *)

val reset : t -> unit
(** RST: posts POLLERR. *)

val release_send_space : t -> int -> unit
(** The wire consumed [n] bytes of the send buffer; posts POLLOUT when
    space reappears from a full buffer. *)

(** {1 Transport hooks} (installed by the TCP layer) *)

val set_transport : t -> on_send:(int -> unit) -> on_close:(unit -> unit) -> unit
(** [on_send n] is invoked when the application commits [n] bytes to
    the send buffer (the TCP layer then puts them on the wire and
    later calls {!release_send_space}); [on_close] when the
    application closes the socket (the TCP layer emits the FIN). *)

val transport_send : t -> int -> unit
(** Invokes the [on_send] hook; used by the syscall layer. *)

(** {1 Application-facing operations} (called by the syscall layer) *)

val read_all : t -> int * string
(** Drains the receive buffer: (bytes, accumulated payload). On a
    [Peer_closed] socket with an empty buffer this is [(0, "")] — EOF. *)

val write_reserve : t -> int -> int
(** Claims send-buffer space; returns bytes accepted (0 when full or
    not writable). *)

(** {1 Shared-ring transmit} (see {!Zc_ring}) *)

val ring_attach : t -> slot_bytes:int -> bool
(** Attaches a transmit ring sized to the send buffer
    ([snd_cap / slot_bytes] slots), reserving its pages against the
    host's memory budget; [false] when the budget refuses or the
    socket is not connected. Idempotent — a second attach on a live
    ring succeeds without reserving again. The ring is destroyed (and
    its reservation released) by {!close} and {!discard}. *)

val ring : t -> Zc_ring.t option

val ring_reserve : t -> int -> copy_bytes:int -> (int * int) option
(** Like {!write_reserve}, but the accepted bytes beyond the first
    [copy_bytes] (the selective mode's copied-through headers) are
    pinned into the attached ring. Returns [(accepted, fresh_pages)]
    — the caller charges {!Cost_model.page_map_cost} for
    [fresh_pages] — or [None] when no ring is attached. Pinned pages
    are unpinned by {!release_send_space} as the wire drains them. *)

val accept_pop : t -> t option
val accept_queue_length : t -> int

val close : t -> unit
(** Marks [Closed], empties buffers, posts POLLNVAL so sleepers
    re-evaluate, then releases everything the connection pinned: the
    kernel-memory reservation, observer/watcher closures, the payload
    buffer, and the arena slot itself. *)

val discard : t -> unit
(** Reclaims a connection that never reached an application fd (a
    refused handshake, an accept-path drop) with zero observable
    behaviour: no edge, no hook, no charge — only the memory
    reservation and the arena slot come back. *)

(** {1 Kernel memory} (modeled; see {!Cost_model.t.sock_struct_bytes}) *)

val reserve_kernel_memory : t -> bool
(** Reserves [sock_struct_bytes + rcv_cap + snd_cap] against the
    host's memory budget; [false] when the budget would be exceeded
    (the accept path then refuses the connection). Idempotent. *)

val kernel_memory_bytes : t -> int
(** Bytes currently reserved for this connection (0 when none). *)

(** {1 Arena-native backend attachments}

    Kernel facilities that keep per-connection records (an epoll
    interest, a /dev/poll backmap subscription, an RT-signal binding)
    store them here instead of in private side tables: the record
    lives in the connection's {!Conn_arena} cold slot, keyed by a
    per-instance attach key, and is dropped automatically when the
    slot frees. All three operations are inert on stale handles. *)

val new_attach_key : unit -> int
(** Mints a process-unique key (one per backend instance). *)

val attach : t -> key:int -> Conn_arena.cold -> unit
(** Stores (or replaces) this key's attachment on the socket. O(1):
    attachments live in three fixed slots (a socket is only ever
    watched by its process's one backend plus at most an RT-signal
    binding). Raises [Invalid_argument] if a fourth distinct key is
    attached to one socket. *)

val attachment : t -> key:int -> Conn_arena.cold option

val detach : t -> key:int -> unit

(** {1 TCP linkage} *)

val set_tcp_link : t -> int -> unit
(** Records the owning {!Tcp} connection id in the arena. *)

val tcp_link : t -> int
(** The owning TCP connection id, or 0. *)
