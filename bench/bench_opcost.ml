(* Simulated operation-cost tables: the quantities Section 3 of the
   paper argues about, measured on the calibrated cost model. Every
   number is deterministic. *)

open Sio_sim
open Sio_kernel
open Bench_lib

let busy_delta host f =
  let before = Cpu.total_busy host.Host.cpu in
  f ();
  Time.sub (Cpu.total_busy host.Host.cpu) before

(* Simulated CPU cost of one wait call over [n] idle descriptors. *)
let select_call_cost n =
  let n = Stdlib.min n (Fd_set.fd_setsize - 1) in
  let engine, host, lookup = Bench_micro.env n in
  let read = Fd_set.create () in
  for fd = 0 to n - 1 do
    Fd_set.set read fd
  done;
  let none = Fd_set.create () in
  busy_delta host (fun () ->
      Select.select ~host ~lookup ~read ~write:none ~except:none ~timeout:(Some Time.zero)
        ~k:(fun _ -> ());
      Engine.run engine)

let epoll_call_cost n =
  let engine, host, ep = Bench_micro.epoll_env n in
  busy_delta host (fun () ->
      Epoll.wait ep ~max_events:64 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
      Engine.run engine)

let poll_call_cost n =
  let engine, host, lookup = Bench_micro.env n in
  let interests = List.init n (fun fd -> (fd, Pollmask.pollin)) in
  busy_delta host (fun () ->
      Poll.wait ~host ~lookup ~interests ~timeout:(Some Time.zero) ~k:(fun _ -> ());
      Engine.run engine)

let devpoll_call_cost ?hints ~warm n =
  let engine, host, dev = Bench_micro.devpoll_env ?hints n in
  if warm then begin
    (* Populate the result caches so hints can do their job. *)
    Devpoll.dp_poll dev ~max_results:64 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
    Engine.run engine
  end;
  busy_delta host (fun () ->
      Devpoll.dp_poll dev ~max_results:64 ~timeout:(Some Time.zero) ~k:(fun _ -> ());
      Engine.run engine)

(* Cost of keeping the kernel's interest set in sync for one
   connection turnover (add + remove) vs re-submitting the whole
   array, which is what every poll() call does. *)
let interest_maintenance_cost n =
  let _, host, dev = Bench_micro.devpoll_env n in
  busy_delta host (fun () ->
      Devpoll.write dev [ (0, Pollmask.pollremove) ];
      Devpoll.write dev [ (0, Pollmask.pollin) ])

(* One DP_POLL returning [n] ready descriptors, through the mapped
   result area or copied out: the saving is per ready descriptor, so
   it only shows at high readiness. *)
let devpoll_results_cost ~use_mmap n =
  let engine, host, dev = Bench_micro.devpoll_env ~ready:n n in
  if use_mmap then Devpoll.alloc_result_map dev ~slots:n;
  busy_delta host (fun () ->
      Devpoll.dp_poll dev ~max_results:n ~timeout:(Some Time.zero) ~k:(fun _ -> ());
      Engine.run engine)

let rt_event_cost ~batch n_events =
  let engine, host, _ = Bench_micro.env 0 in
  let q = Rt_signal.create_queue ~host ~limit:(n_events + 1) () in
  let sock = Socket.create_established ~host in
  Rt_signal.set_signal q ~socket:sock ~fd:1 ~signo:Rt_signal.sigrtmin;
  for _ = 1 to n_events do
    ignore (Socket.deliver sock ~bytes_len:1 ~payload:"");
    ignore (Socket.read_all sock)
  done;
  busy_delta host (fun () ->
      let remaining = ref n_events in
      let rec drain () =
        if !remaining > 0 then
          Rt_signal.sigtimedwait4 q ~max:batch ~timeout:(Some Time.zero) ~k:(fun ds ->
              remaining := !remaining - Ready_batch.length ds;
              if Ready_batch.length ds > 0 then drain ())
      in
      drain ();
      Engine.run engine)

let run ppf =
  Fmt.pf ppf "== Simulated syscall costs vs interest-set size ==@.";
  Fmt.pf ppf "(one wait call, nothing ready: the pure scan overhead)@.";
  Fmt.pf ppf "%8s  %10s  %10s  %13s  %13s  %15s  %9s@." "fds" "select us" "poll us"
    "devpoll cold" "devpoll warm" "warm, hints off" "epoll us";
  List.iter
    (fun n ->
      Fmt.pf ppf "%8d  %10.1f  %10.1f  %13.1f  %13.1f  %15.1f  %9.1f@." n
        (Time.to_us_f (select_call_cost n))
        (Time.to_us_f (poll_call_cost n))
        (Time.to_us_f (devpoll_call_cost ~warm:false n))
        (Time.to_us_f (devpoll_call_cost ~warm:true n))
        (Time.to_us_f (devpoll_call_cost ~hints:false ~warm:true n))
        (Time.to_us_f (epoll_call_cost n)))
    [ 1; 10; 100; 250; 500; 1000; 2000 ];
  Fmt.pf ppf "@.== Interest maintenance: incremental /dev/poll writes ==@.";
  Fmt.pf ppf "(one connection turnover: POLLREMOVE + re-add, vs a full poll() copy-in)@.";
  List.iter
    (fun n ->
      let incremental = interest_maintenance_cost n in
      let full_copy = poll_call_cost n in
      Fmt.pf ppf "%8d fds: incremental %.1f us vs per-call copy %.1f us@." n
        (Time.to_us_f incremental) (Time.to_us_f full_copy))
    [ 100; 500; 1000 ];
  Fmt.pf ppf "@.== Result delivery: one DP_POLL, every fd ready ==@.";
  Fmt.pf ppf "(the shared result mapping saves a copy per ready descriptor)@.";
  Fmt.pf ppf "%8s  %20s  %20s@." "ready" "mmap result area us" "copy-out results us";
  Fmt.pf ppf "%8d  %20.1f  %20.1f@." 256
    (Time.to_us_f (devpoll_results_cost ~use_mmap:true 256))
    (Time.to_us_f (devpoll_results_cost ~use_mmap:false 256));
  Fmt.pf ppf "@.== RT signal dequeue: sigwaitinfo vs sigtimedwait4 ==@.";
  Fmt.pf ppf "(draining 512 queued events; the paper's proposed batching syscall)@.";
  List.iter
    (fun batch ->
      let cost = rt_event_cost ~batch 512 in
      Fmt.pf ppf "  batch %3d: %8.1f us total, %6.2f us/event@." batch
        (Time.to_us_f cost)
        (Time.to_us_f cost /. 512.))
    [ 1; 4; 16; 64 ];
  Fmt.pf ppf "@."
