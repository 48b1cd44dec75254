open Sio_sim

type sub = { token : int; wtoken : int }

(* The subscription tokens are arena-native: they live in the
   subscribed socket's {!Conn_arena} cold slot under this instance's
   attach key and vanish with the connection. The instance keeps an
   fd -> socket-handle index so descriptor reuse is detectable (the
   handle remembers which socket the backmap was installed on). *)
type Conn_arena.cold += Dp_sub of sub

type t = {
  host : Host.t;
  lookup : int -> Socket.t option;
  key : int; (* attach key naming this instance's subscriptions *)
  table : Interest_table.t;
  subs : Socket.t Fd_map.t; (* fd -> socket the backmap is installed on *)
  mutable active : int;
      (* How many interests are marked [active]. The marks are a
         conservative superset of the interests whose next probe might
         do more than a hint-check skip.
         Everything else is idle-certified: socket present and
         backmapped, hints supported, hint empty, cached status not
         ready — so a probe would charge exactly interest_hash_op +
         hint_check and bump hint_skips. Scans probe only the marked
         interests on the host and charge the idle majority
         analytically. *)
  sleepers : Wait_slot.queue; (* tasks sleeping inside dp_poll *)
  slot : Wait_slot.t; (* DP_POLL results and the sleeping caller *)
  (* Walk state of the scan in progress, kept here rather than in
     refs the walk's callback would capture: the callback is closed,
     so a scan allocates no closure. *)
  mutable batch : Ready_batch.t;
  mutable max_results : int;
  mutable actives : int; (* active interests not yet probed *)
  mutable visited : int;
  mutable idle_seen : int;
  mutable result_slots : int option;
  mutable closed : bool;
}

let check_open t = if t.closed then invalid_arg "Devpoll: instance is closed"

let mark_active t (interest : Interest_table.interest) =
  if not interest.active then begin
    interest.active <- true;
    t.active <- t.active + 1
  end

let certify_idle t (interest : Interest_table.interest) =
  if interest.active then begin
    interest.active <- false;
    t.active <- t.active - 1
  end

(* Install the backmap subscription for fd on its current socket: the
   driver posts hints into the interest record and wakes sleepers. The
   uncharged watcher rides along to invalidate idle certification on
   any readiness edge (or hint-support toggle). *)
let subscribe t (interest : Interest_table.interest) (sock : Socket.t) =
  let fd = interest.fd in
  let token =
    Socket.subscribe sock (fun mask ->
        interest.hint <- Pollmask.union interest.hint mask;
        Wait_slot.wake_queue t.sleepers mask)
  in
  let wtoken = Socket.add_watcher sock (fun () -> mark_active t interest) in
  Socket.attach sock ~key:t.key (Dp_sub { token; wtoken });
  Fd_map.set t.subs fd sock

let sub_of t sock =
  match Socket.attachment sock ~key:t.key with
  | Some (Dp_sub s) -> Some s
  | Some _ | None -> None

let unsubscribe t fd =
  match Fd_map.find t.subs fd with
  | None -> ()
  | Some sock ->
      (match sub_of t sock with
      | Some sub ->
          Socket.unsubscribe sock sub.token;
          Socket.remove_watcher sock sub.wtoken;
          Socket.detach sock ~key:t.key
      | None -> ());
      ignore (Fd_map.remove t.subs fd)

(* One pollfd entry of a write(2): add, replace or (POLLREMOVE)
   delete an interest. *)
let change t fd events =
  let costs = t.host.Host.costs in
  ignore (Host.charge t.host costs.Cost_model.devpoll_write_per_change);
  if Pollmask.mem Pollmask.pollremove events then begin
    unsubscribe t fd;
    (match Interest_table.find t.table fd with
    | Some interest -> certify_idle t interest
    | None -> ());
    ignore (Interest_table.remove t.table fd)
  end
  else begin
    ignore (Interest_table.set t.table ~fd ~events);
    match Interest_table.find t.table fd with
    | None -> () (* [set] has just stored it *)
    | Some interest -> (
        (* New or modified interests must be re-probed: [set] resets
           hint and cache, so idle certification no longer holds. *)
        mark_active t interest;
        match t.lookup fd with
        | Some sock -> (
            match Fd_map.find t.subs fd with
            | Some installed when Socket.id installed = Socket.id sock -> ()
            | Some _ ->
                unsubscribe t fd;
                subscribe t interest sock
            | None -> subscribe t interest sock)
        | None -> unsubscribe t fd)
  end

let enter_write t =
  check_open t;
  Host.enter_syscall t.host;
  ignore (Host.charge t.host t.host.Host.costs.Cost_model.backmap_write_lock)

let write t entries =
  enter_write t;
  List.iter (fun (fd, events) -> change t fd events) entries

let write_one t fd events =
  enter_write t;
  change t fd events

let alloc_result_map t ~slots =
  check_open t;
  if slots <= 0 then invalid_arg "Devpoll.alloc_result_map: slots must be positive";
  if t.result_slots <> None then
    invalid_arg "Devpoll.alloc_result_map: mapping already exists";
  let costs = t.host.Host.costs in
  ignore (Host.charge t.host costs.Cost_model.syscall_entry);
  ignore (Host.charge t.host costs.Cost_model.mmap_setup);
  t.result_slots <- Some slots

let release_result_map t =
  check_open t;
  t.result_slots <- None

let has_result_map t = t.result_slots <> None

let consult_driver (interest : Interest_table.interest) sock =
  let st = Socket.driver_poll sock in
  interest.cached <- st;
  interest.cache_valid <- true;
  interest.hint <- Pollmask.empty;
  st

(* Examine one interest, spending as little as the hints allow. *)
let probe t (interest : Interest_table.interest) =
  let costs = t.host.Host.costs in
  let counters = t.host.Host.counters in
  ignore (Host.charge t.host costs.Cost_model.interest_hash_op);
  let fd = interest.Interest_table.fd in
  match t.lookup fd with
  | None -> Pollmask.pollnval
  | Some sock ->
      (* Descriptor reuse: rebind the backmap to the new socket. *)
      (match Fd_map.find t.subs fd with
      | Some installed when Socket.id installed = Socket.id sock -> ()
      | Some _ | None ->
          unsubscribe t fd;
          subscribe t interest sock;
          interest.hint <- Pollmask.empty;
          interest.cache_valid <- false);
      let st =
        if not (Socket.hints_supported sock) then consult_driver interest sock
        else begin
          ignore (Host.charge t.host costs.Cost_model.hint_check);
          if not (Pollmask.is_empty interest.hint) then consult_driver interest sock
          else if not interest.cache_valid then consult_driver interest sock
          else if
            Pollmask.is_empty
              (Pollmask.inter interest.cached (Pollmask.union interest.events Pollmask.forced))
          then begin
            (* Cached "not ready" with no hint: trust it. *)
            counters.Host.hint_skips <- counters.Host.hint_skips + 1;
            interest.cached
          end
          else
            (* Cached "ready" must be revalidated: hints never report
               ready-to-not-ready transitions. *)
            consult_driver interest sock
        end
      in
      let revents = Pollmask.inter st (Pollmask.union interest.events Pollmask.forced) in
      (* Idle certification: a not-ready result under hinting leaves
         hint empty and cache not-ready, so until the socket's watcher
         fires, re-probing would be exactly hash + hint-check + skip. *)
      if Pollmask.is_empty revents && Socket.hints_supported sock then certify_idle t interest;
      revents

(* Charge [count] idle-certified interests in bulk: each would probe
   as interest_hash_op + hint_check and bump hint_skips (see [active]
   above for why that is exact, not an estimate). *)
let charge_idle t count =
  if count > 0 then begin
    let costs = t.host.Host.costs in
    let counters = t.host.Host.counters in
    ignore
      (Cost_model.charge_batch t.host.Host.cpu
         ~cost:(Time.add costs.Cost_model.interest_hash_op costs.Cost_model.hint_check)
         ~count);
    counters.Host.hint_skips <- counters.Host.hint_skips + count
  end

(* Fill the wait slot's batch, stopping — probes and table walk both
   — the moment it is full. Returns the ready count; the batch stays
   valid until the next scan on this instance.

   Host cost is O(active): when nothing is active the whole table is
   one analytic charge; otherwise the walk skips idle-certified
   entries (counting them for the bulk charge) and exits as soon as
   the last active interest has been probed, charging the unvisited
   tail in bulk. Charged nanoseconds and counters are identical to the
   full walk — only the charge *order* within the scan differs, and
   Cpu.consume is additive with no engine interleaving mid-scan. *)
let[@complexity "O(active)"] scan t ~max_results batch =
  Ready_batch.clear batch;
  let total = Interest_table.length t.table in
  if t.active = 0 then begin
    charge_idle t total;
    0
  end
  else begin
    t.batch <- batch;
    t.max_results <- max_results;
    t.actives <- t.active;
    t.visited <- 0;
    t.idle_seen <- 0;
    Interest_table.iter_while t.table t ~f:(fun t interest ->
        if Ready_batch.length t.batch >= t.max_results then false
        else if t.actives = 0 then false
        else begin
          t.visited <- t.visited + 1;
          if interest.Interest_table.active then begin
            (* Count before probing: probe may re-certify this entry
               idle, but never touches other entries' marks. *)
            t.actives <- t.actives - 1;
            let revents = probe t interest in
            if not (Pollmask.is_empty revents) then
              Ready_batch.push t.batch interest.Interest_table.fd revents
          end
          else t.idle_seen <- t.idle_seen + 1;
          true
        end);
    (* The unvisited tail is all idle — but only charge it if the
       batch has room: a full batch stops the real walk cold. *)
    if Ready_batch.length batch < max_results then
      t.idle_seen <- t.idle_seen + (total - t.visited);
    charge_idle t t.idle_seen;
    Ready_batch.length batch
  end

let create ~host ~lookup =
  let t =
    {
      host;
      lookup;
      key = Socket.new_attach_key ();
      table = Interest_table.create ();
      subs = Fd_map.create ~initial_capacity:64 ();
      active = 0;
      sleepers = Wait_slot.queue host;
      slot = Wait_slot.create ~host;
      batch = Ready_batch.create ~initial_capacity:1 ();
      max_results = 1;
      actives = 0;
      visited = 0;
      idle_seen = 0;
      result_slots = None;
      closed = false;
    }
  in
  let costs = host.Host.costs in
  Wait_slot.set_hooks t.slot
    ~rescan:(fun ~cap batch -> scan t ~max_results:cap batch)
    ~sleep:(fun w -> Wait_slot.sleep_on_queue t.sleepers w)
    ~unsleep:(fun w -> Wait_slot.unsleep_queue t.sleepers w)
    ~copyout:(fun batch ->
      (* With the shared mapping there is nothing to copy out. *)
      if t.result_slots = None then
        ignore
          (Host.charge host
             (Time.mul costs.Cost_model.poll_copyout_per_ready (Ready_batch.length batch))))
    ();
  t

let[@complexity "O(active)"] dp_poll t ~max_results ~timeout ~k =
  check_open t;
  if max_results <= 0 then invalid_arg "Devpoll.dp_poll: max_results must be positive";
  let max_results =
    match t.result_slots with
    | Some slots -> Stdlib.min max_results slots
    | None -> max_results
  in
  let slot = Wait_slot.enter t.slot ~cap:max_results ~k in
  if Wait_slot.must_sleep slot ~ready:(scan t ~max_results (Wait_slot.batch slot)) ~timeout
  then begin
    (* One registration on the instance's queue, charged once per
       call: a rescan that sleeps again does not pay it twice. *)
    ignore (Host.charge t.host t.host.Host.costs.Cost_model.wait_queue_register);
    Wait_slot.block slot
  end

let interest_count t = Interest_table.length t.table

let active_fds t =
  List.sort compare
    (Interest_table.fold t.table ~init:[] ~f:(fun acc (i : Interest_table.interest) ->
         if i.active then i.fd :: acc else acc))

let close t =
  if not t.closed then begin
    Fd_map.iter t.subs (fun _ sock ->
        match sub_of t sock with
        | Some sub ->
            Socket.unsubscribe sock sub.token;
            Socket.remove_watcher sock sub.wtoken;
            Socket.detach sock ~key:t.key
        | None -> ());
    Fd_map.clear t.subs;
    Interest_table.iter t.table (fun i -> i.Interest_table.active <- false);
    t.active <- 0;
    t.closed <- true
  end

let is_closed t = t.closed
