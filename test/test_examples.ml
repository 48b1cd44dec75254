(* Golden-stdout tests for the runnable examples. Every example is
   deterministic, so its whole transcript is pinned: a change that
   moves any modeled number an example prints fails here. Refresh one
   with [dune exec examples/<name>.exe -- <args> >
   test/example_goldens/<name>[_<args>].txt]. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let case exe args =
  let golden = String.concat "_" (exe :: args) ^ ".txt" in
  Alcotest.test_case (String.concat " " (exe :: args)) `Quick (fun () ->
      let out = Filename.temp_file exe ".out" in
      let code =
        Sys.command (Filename.quote_command ("../examples/" ^ exe ^ ".exe") ~stdout:out args)
      in
      let got = read_file out in
      Sys.remove out;
      Alcotest.(check int) "exit status" 0 code;
      Alcotest.(check string) golden (read_file ("example_goldens/" ^ golden)) got)

let suite =
  List.map (fun exe -> case exe []) [ "quickstart"; "overflow_recovery"; "hybrid_demo"; "frontend_cache" ]
  @ List.map
      (fun server -> case "static_server" [ server; "1" ])
      [ "select"; "poll"; "devpoll"; "epoll"; "phhttpd"; "hybrid" ]
