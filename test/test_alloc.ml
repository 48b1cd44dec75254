(* Host-allocation guarantees of the request path: the event queue,
   the notification waits and the HTTP scanner allocate nothing per
   operation once warm, and a whole churn run stays within a
   words-per-reply budget. Words are counted with [Gc.minor_words]
   over a fixed loop after a warm-up, so the figures are exact. *)

open Sio_sim
open Sio_kernel
open Sio_httpd

let words_per_run ?(warmup = 100) ?(runs = 1000) f =
  for _ = 1 to warmup do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

let check_words name ~expected got =
  if Float.abs (got -. expected) > 0.01 then
    Alcotest.failf "%s: %.2f minor words per run, expected %.1f" name got expected

(* ---- the HTTP scanner against the substring implementation ---- *)

(* The request scanner this module replaced, kept as the oracle: one
   substring per candidate offset, the request line split on spaces. *)
module Oracle = struct
  let terminator = "\r\n\r\n"

  let is_complete s =
    let n = String.length s and m = String.length terminator in
    let rec at i =
      if i + m > n then false else if String.sub s i m = terminator then true else at (i + 1)
    in
    at 0

  let parse_request s =
    if not (is_complete s) then Error `Incomplete
    else
      match String.index_opt s '\r' with
      | None -> Error `Malformed
      | Some eol -> (
          let line = String.sub s 0 eol in
          match String.split_on_char ' ' line with
          | [ meth; path; version ]
            when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
              Ok { Http.meth; path }
          | _ -> Error `Malformed)
end

let same_parse a b =
  match (a, b) with
  | Ok { Http.meth = m1; path = p1 }, Ok { Http.meth = m2; path = p2 } ->
      String.equal m1 m2 && String.equal p1 p2
  | Error `Incomplete, Error `Incomplete | Error `Malformed, Error `Malformed -> true
  | _ -> false

let agrees s =
  Bool.equal (Http.is_complete s) (Oracle.is_complete s)
  && same_parse (Http.parse_request s) (Oracle.parse_request s)

(* Request-shaped text: pieces of real requests, separators and noise,
   so terminators, spaces and "HTTP/" prefixes turn up often. *)
let request_ish =
  let open QCheck.Gen in
  let piece =
    oneofl
      [ "GET"; "POST"; " "; "  "; "/"; "/index.html"; "HTTP/1.0"; "HTTP/"; "HTTP"; "\r";
        "\n"; "\r\n"; "\r\n\r\n"; "Host: server"; "x"; "" ]
  in
  map (String.concat "") (list_size (0 -- 12) piece)

let mutate s =
  let open QCheck.Gen in
  if String.length s = 0 then return s
  else
    map2
      (fun i c ->
        let b = Bytes.of_string s in
        Bytes.set b (i mod Bytes.length b) c;
        Bytes.to_string b)
      nat
      (oneofl [ ' '; '\r'; '\n'; 'H'; '/'; 'x' ])

let prop_scanner_random =
  QCheck.Test.make ~name:"scanner agrees with the substring oracle (random)" ~count:2000
    (QCheck.make ~print:String.escaped request_ish)
    agrees

let prop_scanner_mutated =
  QCheck.Test.make ~name:"scanner agrees with the substring oracle (mutated)" ~count:2000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         string_size ~gen:(char_range 'a' 'z') (1 -- 20) >>= fun name ->
         mutate (Http.build_request ~path:("/" ^ name))))
    agrees

(* A request delivered in two segments: every prefix is judged the
   same way, and the concatenation (what [Conn] keeps) parses alike. *)
let prop_scanner_split =
  QCheck.Test.make ~name:"scanner agrees with the oracle on split deliveries" ~count:500
    QCheck.(pair (string_of_size Gen.(1 -- 20)) small_nat)
    (fun (name, cut) ->
      let r = Http.build_request ~path:("/" ^ name) in
      let cut = cut mod (String.length r + 1) in
      let first = String.sub r 0 cut in
      agrees first && agrees (first ^ String.sub r cut (String.length r - cut)))

let test_head_bytes_arithmetic () =
  let template n =
    String.length
      (Printf.sprintf
         "HTTP/1.0 200 OK\r\nServer: thttpd-sim\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n"
         n)
  in
  let sizes =
    List.concat_map
      (fun p -> [ p - 1; p; p + 1 ])
      [ 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000; 1_000_000_000 ]
    @ [ 0; 6144; 65_536; 123_456_789 ]
  in
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "head of a %d-byte body" n)
        (template n)
        (Http.response_head_bytes ~body_bytes:n))
    sizes

let test_is_complete_allocates_nothing () =
  let r = Http.build_request ~path:"/index.html" in
  let half = String.sub r 0 (String.length r / 2) in
  check_words "is_complete" ~expected:0.
    (words_per_run (fun () ->
         ignore (Sys.opaque_identity (Http.is_complete r));
         ignore (Sys.opaque_identity (Http.is_complete half))))

(* ---- the event queue ---- *)

let test_schedule_fire_allocates_nothing () =
  let e = Engine.create () in
  let noop () = () in
  check_words "schedule+fire" ~expected:0.
    (words_per_run (fun () ->
         ignore (Engine.after e 10 noop);
         ignore (Engine.step e)))

let test_growth_mid_run () =
  (* A queue created with room for one event grows while events fire
     and keeps (time, FIFO) order across the growth. *)
  let q = Event_queue.create ~initial_capacity:1 () in
  let fired = ref [] in
  let rec chain i =
    if i < 40 then begin
      ignore (Event_queue.schedule q ~at:(i / 3) (fun () -> fired := i :: !fired));
      ignore (Event_queue.schedule q ~at:(i / 3) (fun () -> chain (i + 1)))
    end
  in
  chain 0;
  let rec drain () =
    if Event_queue.peek_time q <> Event_queue.no_event then begin
      (Event_queue.pop q) ();
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list int)) "fired in order" (List.init 40 Fun.id) (List.rev !fired);
  Alcotest.(check int) "empty" 0 (Event_queue.length q)

let test_actions_released () =
  (* Neither a fired nor a cancelled action stays reachable from the
     queue: each closure's captured block can be collected. *)
  let q = Event_queue.create () in
  let weak = Weak.create 2 in
  let schedule_tracked i =
    let payload = Bytes.create 64 in
    Weak.set weak i (Some payload);
    Event_queue.schedule q ~at:(10 + i) (fun () -> ignore (Sys.opaque_identity payload))
  in
  let _fired = schedule_tracked 0 in
  let cancelled = schedule_tracked 1 in
  (* A later event keeps the cancelled entry's heap slot in place. *)
  ignore (Event_queue.schedule q ~at:100 ignore);
  Event_queue.cancel q cancelled;
  (Event_queue.pop q) ();
  Gc.full_major ();
  Alcotest.(check bool) "fired action released" false (Weak.check weak 0);
  Alcotest.(check bool) "cancelled action released" false (Weak.check weak 1);
  Alcotest.(check int) "one left" 1 (Event_queue.length q)

(* ---- blocked waits ---- *)

(* One wait-queue entry: the cons a sleeper adds to the queue. *)
let cons_words = 3.

(* A socket whose send buffer is full is not writable; freeing the
   buffer posts the POLLOUT edge that wakes the sleeper. Neither step
   allocates, so the round trip measures the wait alone. *)
let writable_socket host =
  let s = Socket.create_established ~host in
  let some_s = Some s in
  (s, fun fd -> if fd = 3 then some_s else None)

let blocked_round_trip engine s ~wait =
  let woken = ref 0 in
  let k batch = woken := !woken + Ready_batch.length batch in
  let round () =
    let n = Socket.write_reserve s 65_536 in
    wait ~k;
    Engine.run engine;
    Socket.release_send_space s n;
    Engine.run engine
  in
  let words = words_per_run round in
  Alcotest.(check int) "woke every round" 1100 !woken;
  words

let test_blocked_dp_poll_round_trip () =
  let engine = Helpers.mk_engine () in
  let host = Helpers.mk_host engine in
  let s, lookup = writable_socket host in
  let dev = Devpoll.create ~host ~lookup in
  Devpoll.write dev [ (3, Pollmask.pollout) ];
  let words =
    blocked_round_trip engine s ~wait:(fun ~k ->
        Devpoll.dp_poll dev ~max_results:8 ~timeout:None ~k)
  in
  check_words "blocked DP_POLL round trip" ~expected:cons_words words

let test_blocked_epoll_round_trip () =
  let engine = Helpers.mk_engine () in
  let host = Helpers.mk_host engine in
  let s, lookup = writable_socket host in
  let ep = Epoll.create ~host ~lookup in
  ignore (Epoll.ctl_add ep ~fd:3 ~events:Pollmask.pollout ());
  let words =
    blocked_round_trip engine s ~wait:(fun ~k -> Epoll.wait ep ~max_events:8 ~timeout:None ~k)
  in
  check_words "blocked epoll_wait round trip" ~expected:cons_words words

(* ---- a whole run ---- *)

let test_churn_words_per_reply () =
  (* The benchmark's churn point in miniature: thttpd on /dev/poll,
     one idle connection, a 6 KB document. *)
  let open Sio_loadgen in
  let config =
    Experiment.default_config
      ~kind:(Experiment.Thttpd_devpoll { use_mmap = true; max_events = 64 })
      ~workload:
        {
          Workload.default with
          Workload.request_rate = 1000;
          total_connections = 1000;
          inactive_connections = 1;
        }
  in
  let before = Gc.minor_words () in
  let outcome = Experiment.run config in
  let words = Gc.minor_words () -. before in
  let replies = outcome.Experiment.server_stats.Server_stats.replies in
  Alcotest.(check bool) "served" true (replies > 900);
  let per_reply = words /. float_of_int replies in
  (* A run allocates about 357 words per reply; the budget is a coarse
     guard against per-connection regressions, while the zero-word
     tests above pin the per-event paths. *)
  if per_reply > 500. then Alcotest.failf "%.1f minor words per reply, budget 500" per_reply

let suite =
  [
    QCheck_alcotest.to_alcotest prop_scanner_random;
    QCheck_alcotest.to_alcotest prop_scanner_mutated;
    QCheck_alcotest.to_alcotest prop_scanner_split;
    Alcotest.test_case "response head size is arithmetic" `Quick test_head_bytes_arithmetic;
    Alcotest.test_case "is_complete allocates nothing" `Quick test_is_complete_allocates_nothing;
    Alcotest.test_case "schedule+fire allocates nothing" `Quick
      test_schedule_fire_allocates_nothing;
    Alcotest.test_case "queue grows mid-run in order" `Quick test_growth_mid_run;
    Alcotest.test_case "fired and cancelled actions released" `Quick test_actions_released;
    Alcotest.test_case "blocked DP_POLL round trip" `Quick test_blocked_dp_poll_round_trip;
    Alcotest.test_case "blocked epoll_wait round trip" `Quick test_blocked_epoll_round_trip;
    Alcotest.test_case "churn words per reply" `Quick test_churn_words_per_reply;
  ]
