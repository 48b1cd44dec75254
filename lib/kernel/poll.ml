open Sio_sim

let scan_cost ~host ~n_interests =
  let costs = host.Host.costs in
  Time.mul
    (Time.add costs.Cost_model.poll_copyin_per_fd costs.Cost_model.driver_poll_callback)
    n_interests

(* One pass over the interest list, asking each driver for status.
   The driver-callback cost is charged inside [Socket.driver_poll];
   missing descriptors only cost the copy-in. Results go into the
   caller's batch (cleared here), so the rescan-per-wake loop below
   allocates nothing per pass. *)
let[@complexity "O(interests)"] scan ~host ~lookup ~interests ~ready =
  let costs = host.Host.costs in
  Ready_batch.clear ready;
  List.iter
    (fun (fd, events) ->
      ignore (Host.charge host costs.Cost_model.poll_copyin_per_fd);
      let revents =
        match lookup fd with
        | None -> Pollmask.pollnval
        | Some sock ->
            Pollmask.inter (Socket.driver_poll sock) (Pollmask.union events Pollmask.forced)
      in
      if not (Pollmask.is_empty revents) then Ready_batch.push ready fd revents)
    interests;
  Ready_batch.length ready

let copyout host batch =
  ignore
    (Host.charge host
       (Time.mul host.Host.costs.Cost_model.poll_copyout_per_ready (Ready_batch.length batch)))

let[@complexity "O(interests)"] wait ~host ~lookup ~interests ~timeout ~k =
  (* A one-shot call, with a slot of its own: the interest list is
     passed in afresh every time. A sleep registers on every socket's
     wait queue, and a wakeup rescans the whole set. The socket list
     is built only if the call sleeps. *)
  let sockets = ref [] in
  let sleep w = Wait_slot.sleep_on_sockets host !sockets ~n:(List.length interests) w in
  let unsleep w = Wait_slot.unsleep_sockets host !sockets ~n:(List.length interests) w in
  let slot = Wait_slot.create ~host in
  Wait_slot.set_hooks slot
    ~rescan:(fun ~cap:_ ready -> scan ~host ~lookup ~interests ~ready)
    ~sleep ~unsleep ~copyout:(copyout host) ();
  let slot = Wait_slot.enter slot ~cap:max_int ~k in
  if
    Wait_slot.must_sleep slot
      ~ready:(scan ~host ~lookup ~interests ~ready:(Wait_slot.batch slot))
      ~timeout
  then begin
    sockets := List.filter_map (fun (fd, _) -> lookup fd) interests;
    Wait_slot.block slot
  end

(* A persistent poll set: the interest list a server passes to poll()
   on every loop iteration, kept between calls so the host-side scan
   can be O(active) while charging the classic O(n) costs analytically
   (DESIGN.md §5: charged nanoseconds and counters are unchanged; only
   the host container changed). Results still come back in interest
   insertion order, exactly as [wait] reports them. *)
module Pset = struct
  type entry = {
    fd : int;
    order : int; (* insertion rank; re-adding after remove re-ranks *)
    mutable events : Pollmask.t;
    mutable bound : Socket.watch;
  }

  type pset = {
    host : Host.t;
    lookup : int -> Socket.t option;
    entries : entry Fd_map.t;
    active : entry Fd_map.t;
        (* Conservative superset of entries whose probe might report
           readiness. Everything outside it was last seen not-ready on
           a live, watcher-bound socket, so its probe charges exactly
           copy-in + driver callback and reports nothing. *)
    slot : Wait_slot.t; (* poll() results and the sleeping caller *)
    mutable sockets : Socket.t list; (* slept on by the poll() in progress *)
    mutable n_sockets : int;
    mutable next_order : int;
  }

  let set s fd events =
    match Fd_map.find s.entries fd with
    | Some e ->
        e.events <- events;
        Fd_map.set s.active fd e
    | None ->
        let e = { fd; order = s.next_order; events; bound = None } in
        s.next_order <- s.next_order + 1;
        Fd_map.set s.entries fd e;
        Fd_map.set s.active fd e

  let remove s fd =
    match Fd_map.find s.entries fd with
    | None -> ()
    | Some e ->
        Socket.unwatch e.bound;
        ignore (Fd_map.remove s.entries fd);
        ignore (Fd_map.remove s.active fd)

  let mem s fd = Fd_map.mem s.entries fd
  let length s = Fd_map.length s.entries
  let active_fds s = List.map fst (Fd_map.to_list s.active)

  (* One charged probe, identical to the per-fd body of [scan]. Binds
     the watcher to the entry's current socket (descriptor reuse
     rebinds) and re-certifies the entry idle on a not-ready result. *)
  let probe s e =
    let costs = s.host.Host.costs in
    ignore (Host.charge s.host costs.Cost_model.poll_copyin_per_fd);
    match s.lookup e.fd with
    | None -> Pollmask.pollnval (* stays active: POLLNVAL is always reported *)
    | Some sock ->
        e.bound <- Socket.rewatch e.bound sock s.active e.fd e;
        let revents =
          Pollmask.inter (Socket.driver_poll sock) (Pollmask.union e.events Pollmask.forced)
        in
        if Pollmask.is_empty revents then ignore (Fd_map.remove s.active e.fd);
        revents

  (* O(active) scan: idle entries are charged in one batch (each would
     cost copy-in + driver callback and bump driver_polls — they all
     have live sockets, else they could not be idle-certified), active
     entries are probed individually in insertion order so results
     match [scan] byte for byte. *)
  let[@complexity "O(active)"] scan_set s ready =
    let costs = s.host.Host.costs in
    let counters = s.host.Host.counters in
    Ready_batch.clear ready;
    let idle = Fd_map.length s.entries - Fd_map.length s.active in
    if idle > 0 then begin
      ignore
        (Cost_model.charge_batch s.host.Host.cpu
           ~cost:
             (Time.add costs.Cost_model.poll_copyin_per_fd
                costs.Cost_model.driver_poll_callback)
           ~count:idle);
      counters.Host.driver_polls <- counters.Host.driver_polls + idle
    end;
    let acts = Fd_map.fold s.active ~init:[] ~f:(fun acc _ e -> e :: acc) in
    let acts = List.sort (fun a b -> compare a.order b.order) acts in
    List.iter
      (fun e ->
        let revents = probe s e in
        if not (Pollmask.is_empty revents) then Ready_batch.push ready e.fd revents)
      acts;
    Ready_batch.length ready

  let create ~host ~lookup () =
    let s =
      {
        host;
        lookup;
        entries = Fd_map.create ~initial_capacity:64 ();
        active = Fd_map.create ~initial_capacity:64 ();
        slot = Wait_slot.create ~host;
        sockets = [];
        n_sockets = 0;
        next_order = 0;
      }
    in
    Wait_slot.set_hooks s.slot
      ~rescan:(fun ~cap:_ ready -> scan_set s ready)
      ~sleep:(fun w -> Wait_slot.sleep_on_sockets host s.sockets ~n:s.n_sockets w)
      ~unsleep:(fun w -> Wait_slot.unsleep_sockets host s.sockets ~n:s.n_sockets w)
      ~copyout:(copyout host) ();
    s

  (* poll() over the persistent set: charge-for-charge the same call
     sequence as [wait] — syscall entry, scan, sleep registration on
     every interest's socket, full rescan per wake, copy-out per ready. *)
  let[@complexity "O(interests)"] wait_set s ~timeout ~k =
    let slot = Wait_slot.enter s.slot ~cap:max_int ~k in
    if Wait_slot.must_sleep slot ~ready:(scan_set s (Wait_slot.batch slot)) ~timeout then begin
      s.sockets <-
        Fd_map.fold s.entries ~init:[] ~f:(fun acc fd _ ->
            match s.lookup fd with Some sock -> sock :: acc | None -> acc);
      s.n_sockets <- Fd_map.length s.entries;
      Wait_slot.block slot
    end
end
