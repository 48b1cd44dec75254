open Sio_sim
open Sio_kernel

type env = { engine : Engine.t; host : Host.t; sockets : (int, Socket.t) Hashtbl.t }

let mk () =
  let engine = Helpers.mk_engine () in
  let host = Helpers.mk_host engine in
  { engine; host; sockets = Hashtbl.create 8 }

let add env fd =
  let s = Socket.create_established ~host:env.host in
  Hashtbl.replace env.sockets fd s;
  s

let fd_set_of fds =
  let s = Fd_set.create () in
  List.iter (Fd_set.set s) fds;
  s

let run_select env ~read ~write ~timeout ~k =
  Select.select ~host:env.host ~lookup:(Hashtbl.find_opt env.sockets)
    ~read:(fd_set_of read) ~write:(fd_set_of write) ~except:(fd_set_of read)
    ~timeout ~k

let test_readable_reported () =
  let env = mk () in
  let s1 = add env 1 in
  ignore (add env 2);
  ignore (Socket.deliver s1 ~bytes_len:5 ~payload:"");
  let got = ref None in
  run_select env ~read:[ 1; 2 ] ~write:[] ~timeout:(Some Time.zero) ~k:(fun r ->
      got := Some r);
  Engine.run env.engine;
  match !got with
  | Some r ->
      Alcotest.(check bool) "fd 1 readable" true (Fd_set.mem r.Select.readable 1);
      Alcotest.(check bool) "fd 2 not" false (Fd_set.mem r.Select.readable 2)
  | None -> Alcotest.fail "select never returned"

let test_writable_reported () =
  let env = mk () in
  ignore (add env 3);
  let got = ref None in
  run_select env ~read:[] ~write:[ 3 ] ~timeout:(Some Time.zero) ~k:(fun r -> got := Some r);
  Engine.run env.engine;
  match !got with
  | Some r -> Alcotest.(check bool) "writable" true (Fd_set.mem r.Select.writable 3)
  | None -> Alcotest.fail "no return"

let test_blocks_until_ready () =
  let env = mk () in
  let s = add env 1 in
  let at = ref None in
  run_select env ~read:[ 1 ] ~write:[] ~timeout:None ~k:(fun r ->
      at := Some (Engine.now env.engine, Fd_set.mem r.Select.readable 1));
  ignore
    (Engine.at env.engine (Time.ms 7) (fun () ->
         ignore (Socket.deliver s ~bytes_len:1 ~payload:"")));
  Engine.run env.engine;
  Alcotest.(check (option (pair int bool))) "woke with data" (Some (Time.ms 7, true)) !at

let test_timeout_empty () =
  let env = mk () in
  ignore (add env 1);
  let at = ref None in
  run_select env ~read:[ 1 ] ~write:[] ~timeout:(Some (Time.ms 20)) ~k:(fun r ->
      at := Some (Engine.now env.engine, Fd_set.cardinal r.Select.readable));
  Engine.run env.engine;
  Alcotest.(check (option (pair int int))) "timed out empty" (Some (Time.ms 20, 0)) !at

let test_bad_fd_in_except () =
  let env = mk () in
  let got = ref None in
  run_select env ~read:[ 9 ] ~write:[] ~timeout:(Some Time.zero) ~k:(fun r -> got := Some r);
  Engine.run env.engine;
  match !got with
  | Some r -> Alcotest.(check bool) "bad fd excepted" true (Fd_set.mem r.Select.except 9)
  | None -> Alcotest.fail "no return"

let test_eof_is_readable () =
  let env = mk () in
  let s = add env 4 in
  Socket.peer_closed s;
  let got = ref None in
  run_select env ~read:[ 4 ] ~write:[] ~timeout:(Some Time.zero) ~k:(fun r -> got := Some r);
  Engine.run env.engine;
  match !got with
  | Some r -> Alcotest.(check bool) "EOF selects readable" true (Fd_set.mem r.Select.readable 4)
  | None -> Alcotest.fail "no return"

let test_scan_cost_scales_with_nfds () =
  (* select's cost goes with the highest descriptor, not the member
     count: one high fd is as expensive as a thousand low ones. *)
  let cost max_fd =
    let engine = Helpers.mk_engine () in
    let host = Helpers.mk_costed_host engine in
    let sockets = Hashtbl.create 4 in
    Hashtbl.replace sockets max_fd (Socket.create_established ~host);
    let read = Fd_set.create () in
    Fd_set.set read max_fd;
    let none = Fd_set.create () in
    Select.select ~host ~lookup:(Hashtbl.find_opt sockets) ~read ~write:none
      ~except:none ~timeout:(Some Time.zero) ~k:(fun _ -> ());
    Engine.run engine;
    Cpu.total_busy host.Host.cpu
  in
  Alcotest.(check bool) "fd 1000 costs ~40x fd 10" true (cost 1000 > 20 * cost 10)

let prop_select_agrees_with_poll_on_readability =
  QCheck.Test.make ~name:"select and poll agree on readability" ~count:150
    QCheck.(list_of_size Gen.(1 -- 15) (int_bound 2))
    (fun script ->
      let env = mk () in
      List.iteri
        (fun fd action ->
          let s = add env fd in
          match action with
          | 0 -> ()
          | 1 -> ignore (Socket.deliver s ~bytes_len:1 ~payload:"")
          | _ -> Socket.peer_closed s)
        script;
      let n = List.length script in
      let fds = List.init n Fun.id in
      let sel = ref None and pl = ref None in
      run_select env ~read:fds ~write:[] ~timeout:(Some Time.zero) ~k:(fun r ->
          sel := Some r);
      Poll.wait ~host:env.host ~lookup:(Hashtbl.find_opt env.sockets)
        ~interests:(List.map (fun fd -> (fd, Pollmask.pollin)) fds)
        ~timeout:(Some Time.zero)
        ~k:(Helpers.pairs (fun rs -> pl := Some rs));
      Engine.run env.engine;
      match (!sel, !pl) with
      | Some sel, Some pl ->
          List.for_all
            (fun fd ->
              let select_says = Fd_set.mem sel.Select.readable fd in
              let poll_says =
                List.exists
                  (fun (rfd, revents) -> rfd = fd && Pollmask.intersects revents Pollmask.pollin)
                  pl
              in
              select_says = poll_says)
            fds
      | _ -> false)

let suite =
  [
    Alcotest.test_case "readable reported" `Quick test_readable_reported;
    Alcotest.test_case "writable reported" `Quick test_writable_reported;
    Alcotest.test_case "blocks until ready" `Quick test_blocks_until_ready;
    Alcotest.test_case "timeout" `Quick test_timeout_empty;
    Alcotest.test_case "bad fd in except set" `Quick test_bad_fd_in_except;
    Alcotest.test_case "EOF is readable" `Quick test_eof_is_readable;
    Alcotest.test_case "cost scales with nfds" `Quick test_scan_cost_scales_with_nfds;
    QCheck_alcotest.to_alcotest prop_select_agrees_with_poll_on_readability;
  ]
