(* The first Host_mem.rss_bytes calls of a process, made from two
   domains at once: exits 0 when both return, 1 when either raised
   (an unsynchronised one-time page-size probe raises in one of
   them). *)

let () =
  let arrived = Atomic.make 0 in
  let probe () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    Sio_loadgen.Host_mem.rss_bytes ()
  in
  let other = Domain.spawn probe in
  match
    ignore (probe ());
    ignore (Domain.join other)
  with
  | () -> ()
  | exception e ->
      Printf.eprintf "rss_race: %s\n" (Printexc.to_string e);
      exit 1
