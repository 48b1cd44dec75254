(* Standalone microbenchmark runner: prints the bechamel table and
   writes the machine-readable BENCH_micro.json next to the cwd, so
   `make bench-micro` can refresh the committed numbers without the
   full `bench/main.exe` figure sweep.

   `--check FILE` instead compares a fresh run against the committed
   numbers and exits non-zero if any benchmark regressed past a
   generous tolerance — the guard `make bench-check` leans on so
   host-side slowdowns on the scan paths fail CI instead of landing
   silently. The tolerance is wide (3x) because bechamel numbers move
   with machine load and hardware; it catches complexity-class
   regressions (an O(n) walk sneaking back into an O(active) path),
   not percent-level drift. *)

(* One row of write_json's output: four-space indent, %S-quoted name,
   ns/op and minor-words/op each a float or null, optional trailing
   comma. Kept in lockstep with Bench_micro.write_json. *)
let strip_trailing v =
  let v = String.trim v in
  if String.length v > 0 && v.[String.length v - 1] = ',' then
    String.sub v 0 (String.length v - 1)
  else v

let parse_row line =
  match
    Scanf.sscanf line " {%S: %S, %S: %s@, %S: %s@}"
      (fun k1 name k2 ns k3 words ->
        if k1 = "name" && k2 = "ns_per_op" && k3 = "minor_words_per_op" then
          Some (name, ns, words)
        else None)
  with
  | Some (name, ns, words) ->
      Some
        ( name,
          ( float_of_string_opt (strip_trailing ns),
            float_of_string_opt (strip_trailing words) ) )
  | None -> None
  | exception Scanf.Scan_failure _ | exception End_of_file | exception Failure _ -> None

let parse_results path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       match parse_row (input_line ic) with
       | Some row -> rows := row :: !rows
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

let tolerance = 3.0

(* Allocation gate: minor words per op are counted over a fixed loop,
   so they are deterministic and the tolerance is tight. Applied to
   the groups whose whole point is their allocation profile — the
   event engine (schedule and fire must stay allocation-free), the
   notification waits (one reusable batch per instance), the arena
   (connection state must stay a thin handle), the fd-map (ordered
   iteration must not re-grow snapshot allocations), and the
   data-plane (per-send ring accounting must stay heap-free). The
   absolute slack keeps a zero row from failing on a word of
   warm-up growth. *)
let alloc_tolerance = 1.5
let alloc_slack_words = 1.0

let alloc_gated name =
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.exists (contains_sub name)
    [
      "event schedule+fire"; "DP_POLL"; "ready-set/"; "RT signal"; "arena/"; "fd-map/";
      "data-plane/";
    ]

let check committed_path =
  if not (Sys.file_exists committed_path) then begin
    Fmt.epr "bench-check: %s not found@." committed_path;
    exit 2
  end;
  let fresh_path = Filename.temp_file "bench_micro" ".json" in
  Bench_lib.Bench_micro.run ~json_out:fresh_path Fmt.stdout;
  let committed = parse_results committed_path in
  let fresh = parse_results fresh_path in
  Sys.remove fresh_path;
  if committed = [] then begin
    Fmt.epr "bench-check: no results parsed from %s@." committed_path;
    exit 2
  end;
  let failures = ref 0 in
  let fail fmt = Fmt.kstr (fun msg -> incr failures; Fmt.epr "bench-check: %s@." msg) fmt in
  List.iter
    (fun (name, (fresh_ns, fresh_words)) ->
      match List.assoc_opt name committed with
      | None ->
          fail "%S is not in %s — run `make bench-micro` to refresh the committed numbers"
            name committed_path
      | Some (committed_ns, committed_words) ->
          (match (committed_ns, fresh_ns) with
          | Some c, Some f when f > tolerance *. c ->
              fail "%-48s %10.1f ns/op exceeds %.0fx the committed %.1f" name f
                tolerance c
          | _ -> ());
          if alloc_gated name then (
            match (committed_words, fresh_words) with
            | Some c, Some f
              when f > (alloc_tolerance *. c) +. alloc_slack_words ->
                fail
                  "%-48s %10.1f minor words/op exceeds %.1fx the committed %.1f"
                  name f alloc_tolerance c
            | _ -> ()))
    fresh;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name fresh) then
        fail "%S is in %s but no longer measured — run `make bench-micro`" name
          committed_path)
    committed;
  if !failures > 0 then begin
    Fmt.epr "bench-check: %d failure(s) against %s (tolerance %.0fx)@." !failures
      committed_path tolerance;
    exit 1
  end;
  Fmt.pr "bench-check: %d benchmarks within %.0fx of %s@." (List.length fresh) tolerance
    committed_path

let () =
  let json = ref "BENCH_micro.json" in
  let check_against = ref "" in
  let spec =
    [
      ("--json", Arg.Set_string json, "FILE JSON output path (default BENCH_micro.json)");
      ( "--check",
        Arg.Set_string check_against,
        "FILE compare a fresh run against FILE instead of writing JSON" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/bench_micro_main.exe";
  if !check_against <> "" then check !check_against
  else Bench_lib.Bench_micro.run ~json_out:!json Fmt.stdout
