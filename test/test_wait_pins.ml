(* Engine-level pins of every blocking wait: for each mechanism, one
   wait woken by a delivery and one that times out, on a costed host.
   Each line records when and what the wait returned, the engine's
   executed and pending events at a horizon between the wakeup and the
   timeout and again at quiescence, the charged CPU, and the operation
   counters — everything a refactor of the sleep/rescan/timeout path
   could shift without changing a wait's result. A timeout timer left
   uncancelled after a wakeup, say, shows as one more pending event at
   the horizon and one more executed event at the end. *)

open Sio_sim
open Sio_kernel

let timeout = Some (Time.ms 20)
let wake_at = Time.ms 5
let horizon = Time.ms 10
let interest = Pollmask.pollin

(* [start host lookup socks] registers fds 1..3 with the mechanism and
   returns its wait: [wait ~k] blocks with [timeout] and hands [k] the
   ready fds. *)
let pin name ~woken start =
  let engine = Helpers.mk_engine () in
  let host = Helpers.mk_costed_host engine in
  let socks = Array.init 3 (fun _ -> Socket.create_established ~host) in
  let lookup fd = if fd >= 1 && fd <= 3 then Some socks.(fd - 1) else None in
  let wait = start host lookup socks in
  Engine.run engine;
  let ev0 = Engine.events_executed engine in
  let busy0 = Cpu.total_busy host.Host.cpu in
  let c = host.Host.counters in
  let c0 = { c with Host.syscalls = c.Host.syscalls } (* a snapshot *) in
  let ret = ref "never" in
  wait ~k:(fun fds ->
      ret :=
        Fmt.str "%d%a" (Engine.now engine) Fmt.(list ~sep:nop (any " " ++ int)) fds);
  if woken then
    ignore
      (Engine.at engine wake_at (fun () ->
           ignore (Socket.deliver socks.(1) ~bytes_len:1 ~payload:"")));
  Engine.run ~until:horizon engine;
  let mid = (Engine.events_executed engine - ev0, Engine.pending engine) in
  Engine.run engine;
  Fmt.str
    "%s %s: ret=%s mid=%d/%d end=%d/%d busy=%d syscalls=%d driver_polls=%d \
     hint_skips=%d wakes=%d rt_enqueued=%d"
    name
    (if woken then "woken" else "timeout")
    !ret (fst mid) (snd mid)
    (Engine.events_executed engine - ev0)
    (Engine.pending engine)
    (Cpu.total_busy host.Host.cpu - busy0)
    (c.Host.syscalls - c0.Host.syscalls)
    (c.Host.driver_polls - c0.Host.driver_polls)
    (c.Host.hint_skips - c0.Host.hint_skips)
    (c.Host.wait_queue_wakes - c0.Host.wait_queue_wakes)
    (c.Host.rt_enqueued - c0.Host.rt_enqueued)

let fds batch = List.map fst (Ready_batch.to_list batch)

let select host lookup _ ~k =
  let read = Fd_set.create () in
  List.iter (Fd_set.set read) [ 1; 2; 3 ];
  Select.select ~host ~lookup ~read ~write:(Fd_set.create ()) ~except:read ~timeout
    ~k:(fun r ->
      let fds = ref [] in
      Fd_set.iter r.Select.readable (fun fd -> fds := fd :: !fds);
      k (List.rev !fds))

let sset host lookup _ =
  let s = Select.Sset.create ~host ~lookup () in
  List.iter (fun fd -> Select.Sset.add s fd interest) [ 1; 2; 3 ];
  fun ~k -> Select.Sset.wait_sset s ~timeout ~k:(fun b -> k (fds b))

let poll host lookup _ ~k =
  Poll.wait ~host ~lookup
    ~interests:(List.map (fun fd -> (fd, interest)) [ 1; 2; 3 ])
    ~timeout
    ~k:(fun b -> k (fds b))

let pset host lookup _ =
  let s = Poll.Pset.create ~host ~lookup () in
  List.iter (fun fd -> Poll.Pset.set s fd interest) [ 1; 2; 3 ];
  fun ~k -> Poll.Pset.wait_set s ~timeout ~k:(fun b -> k (fds b))

let devpoll host lookup _ =
  let dp = Devpoll.create ~host ~lookup in
  Devpoll.write dp (List.map (fun fd -> (fd, interest)) [ 1; 2; 3 ]);
  fun ~k -> Devpoll.dp_poll dp ~max_results:8 ~timeout ~k:(fun b -> k (fds b))

let epoll host lookup _ =
  let ep = Epoll.create ~host ~lookup in
  List.iter
    (fun fd -> Helpers.ok (Epoll.ctl_add ep ~fd ~events:interest ()))
    [ 1; 2; 3 ];
  fun ~k -> Epoll.wait ep ~max_events:8 ~timeout ~k:(fun b -> k (fds b))

let sigtimedwait4 host _ socks =
  let q = Rt_signal.create_queue ~host () in
  Array.iteri
    (fun i socket -> Rt_signal.set_signal q ~socket ~fd:(i + 1) ~signo:Rt_signal.sigrtmin)
    socks;
  fun ~k -> Rt_signal.sigtimedwait4 q ~max:8 ~timeout ~k:(fun b -> k (fds b))

let mechanisms =
  [
    ("select", select);
    ("sset", sset);
    ("poll", poll);
    ("pset", pset);
    ("devpoll", devpoll);
    ("epoll", epoll);
    ("sigtimedwait4", sigtimedwait4);
  ]

let expected =
  [
    "select woken: ret=5047600 2 mid=2/0 end=2/0 busy=91100 syscalls=1 driver_polls=6 hint_skips=0 wakes=1 rt_enqueued=0";
    "select timeout: ret=20040900 mid=0/1 end=2/0 busy=84400 syscalls=1 driver_polls=6 hint_skips=0 wakes=0 rt_enqueued=0";
    "sset woken: ret=5047600 2 mid=2/0 end=2/0 busy=91100 syscalls=1 driver_polls=6 hint_skips=0 wakes=1 rt_enqueued=0";
    "sset timeout: ret=20040900 mid=0/1 end=2/0 busy=84400 syscalls=1 driver_polls=6 hint_skips=0 wakes=0 rt_enqueued=0";
    "poll woken: ret=5052780 2 mid=2/0 end=2/0 busy=101280 syscalls=1 driver_polls=6 hint_skips=0 wakes=1 rt_enqueued=0";
    "poll timeout: ret=20000900 mid=0/1 end=2/0 busy=49400 syscalls=1 driver_polls=3 hint_skips=0 wakes=0 rt_enqueued=0";
    "pset woken: ret=5052780 2 mid=2/0 end=2/0 busy=101280 syscalls=1 driver_polls=6 hint_skips=0 wakes=1 rt_enqueued=0";
    "pset timeout: ret=20000900 mid=0/1 end=2/0 busy=49400 syscalls=1 driver_polls=3 hint_skips=0 wakes=0 rt_enqueued=0";
    "devpoll woken: ret=5022540 2 mid=2/0 end=2/0 busy=64640 syscalls=1 driver_polls=4 hint_skips=2 wakes=1 rt_enqueued=0";
    "devpoll timeout: ret=20000000 mid=0/1 end=2/0 busy=42100 syscalls=1 driver_polls=3 hint_skips=0 wakes=0 rt_enqueued=0";
    "epoll woken: ret=5019000 2 mid=2/0 end=2/0 busy=21000 syscalls=1 driver_polls=1 hint_skips=0 wakes=1 rt_enqueued=0";
    "epoll timeout: ret=20000000 mid=0/1 end=2/0 busy=2000 syscalls=1 driver_polls=0 hint_skips=0 wakes=0 rt_enqueued=0";
    "sigtimedwait4 woken: ret=5007410 2 mid=2/1 end=3/0 busy=37410 syscalls=1 driver_polls=0 hint_skips=0 wakes=0 rt_enqueued=1";
    "sigtimedwait4 timeout: ret=20000000 mid=0/1 end=1/0 busy=30000 syscalls=1 driver_polls=0 hint_skips=0 wakes=0 rt_enqueued=0";
  ]

let test_pins () =
  let got =
    List.concat_map
      (fun (name, start) -> [ pin name ~woken:true start; pin name ~woken:false start ])
      mechanisms
  in
  Alcotest.(check (list string)) "blocking-wait pins" expected got

let suite = [ Alcotest.test_case "engine events, CPU and counters" `Quick test_pins ]
