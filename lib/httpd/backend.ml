open Sio_sim
open Sio_kernel

type impl = {
  name : string;
  add : int -> Pollmask.t -> unit;
  modify : int -> Pollmask.t -> unit;
  remove : int -> unit;
  wait : timeout:Time.t option -> k:(Ready_batch.t -> unit) -> unit;
  interest_count : unit -> int;
}

type t = impl

let name t = t.name
let add t fd mask = t.add fd mask
let modify t fd mask = t.modify fd mask
let remove t fd = t.remove fd
let wait t ~timeout ~k = t.wait ~timeout ~k
let interest_count t = t.interest_count ()

let poll proc =
  (* User-space interest set; insertion order preserved so the pollfd
     array looks like thttpd's (listener first, then connections).
     Kept persistent so the host-side scan is O(active); charged costs
     and results are identical to rebuilding the list every call. *)
  let set =
    Poll.Pset.create
      ~host:(Process.host proc)
      ~lookup:(Process.lookup_socket proc)
      ()
  in
  {
    name = "poll";
    add = (fun fd mask -> Poll.Pset.set set fd mask);
    modify = (fun fd mask -> if Poll.Pset.mem set fd then Poll.Pset.set set fd mask);
    remove = (fun fd -> Poll.Pset.remove set fd);
    wait = (fun ~timeout ~k -> Poll.Pset.wait_set set ~timeout ~k);
    interest_count = (fun () -> Poll.Pset.length set);
  }

let devpoll ?(use_mmap = true) ?(max_events = 64) proc =
  match Kernel.devpoll_open proc with
  | Error (`Emfile | `Ebadf | `Eagain | `Einval) -> Error `Emfile
  | Ok dpfd ->
      if use_mmap then
        ignore (Kernel.devpoll_alloc_map proc dpfd ~slots:max_events);
      let count = ref 0 in
      let write fd mask = ignore (Kernel.devpoll_write_one proc dpfd fd mask) in
      Ok
        {
          name = (if use_mmap then "devpoll" else "devpoll-nommap");
          add =
            (fun fd mask ->
              incr count;
              write fd mask);
          modify = write;
          remove =
            (fun fd ->
              decr count;
              write fd Pollmask.pollremove);
          wait =
            (fun ~timeout ~k ->
              ignore (Kernel.devpoll_wait proc dpfd ~max_results:max_events ~timeout ~k));
          interest_count = (fun () -> !count);
        }

let select proc =
  let set =
    Select.Sset.create
      ~host:(Process.host proc)
      ~lookup:(Process.lookup_socket proc)
      ()
  in
  let add fd mask = Select.Sset.add set fd mask in
  {
    name = "select";
    add;
    modify = add;
    remove = (fun fd -> Select.Sset.remove set fd);
    wait = (fun ~timeout ~k -> Select.Sset.wait_sset set ~timeout ~k);
    interest_count = (fun () -> Select.Sset.interest_count set);
  }

let epoll ?(max_events = 64) proc =
  let ep = Epoll.create ~host:(Process.host proc) ~lookup:(Process.lookup_socket proc) in
  {
    name = "epoll";
    add =
      (fun fd mask ->
        match Epoll.ctl_add ep ~fd ~events:mask () with
        | Ok () -> ()
        | Error `Eexist -> ignore (Epoll.ctl_mod ep ~fd ~events:mask)
        | Error `Ebadf -> ());
    modify = (fun fd mask -> ignore (Epoll.ctl_mod ep ~fd ~events:mask));
    remove = (fun fd -> ignore (Epoll.ctl_del ep ~fd));
    wait = (fun ~timeout ~k -> Epoll.wait ep ~max_events ~timeout ~k);
    interest_count = (fun () -> Epoll.interest_count ep);
  }
