(* Host-process RSS, for the memory columns of the extended
   idle-scaling figure. Reads /proc/self/statm (resident pages); the
   value is a property of the measuring host, not of the simulation.
   The nondet-taint lint rule treats both [rss_bytes] and the procfs
   read as taint sources and rejects any resolved call path from here
   into a byte-identity sink ([Report.csv_of_*], the bench-smoke
   fingerprint), so host memory can only ever surface in JSON report
   fields. *)

(* The statm unit is pages, whose size is a host property too: ask the
   host ([getconf PAGESIZE]), and fall back to 4096 when there is no
   getconf to ask. The probe runs on the first RSS read, so simulations
   that never report RSS never fork. The answer is cached in an atomic,
   0 until known: domains that race on the first read each probe and
   store the same value. *)
let probe_page_size () =
  match Unix.open_process_in "getconf PAGESIZE 2>/dev/null" with
  | exception _ -> 4096
  | ic -> (
      let line = try input_line ic with End_of_file | Sys_error _ -> "" in
      match (Unix.close_process_in ic, int_of_string_opt (String.trim line)) with
      | Unix.WEXITED 0, Some n when n > 0 -> n
      | _ -> 4096
      | exception _ -> 4096)

let known_page_size = Atomic.make 0

let page_size () =
  match Atomic.get known_page_size with
  | 0 ->
      let n = probe_page_size () in
      Atomic.set known_page_size n;
      n
  | n -> n

let rss_bytes () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> 0
  | ic ->
      let resident =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match String.split_on_char ' ' line with
            | _size :: resident :: _ ->
                Option.value (int_of_string_opt resident) ~default:0
            | _ -> 0)
      in
      close_in ic;
      resident * page_size ()
