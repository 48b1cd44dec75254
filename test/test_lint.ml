(* Golden tests for Sio_analysis (`bin/sio_lint`): each rule has a
   violating and a conforming fixture under [lint_fixtures/]; the
   violating one must produce exactly the expected findings (file,
   line, col, rule, message) and the conforming one none. The
   interprocedural rules (syscall-cost, module-state, stale-ignore)
   additionally get multi-file fixture directories exercised through
   [Driver.analyze_paths], plus structural goldens for the call graph
   itself and a qcheck property for the reachability fixpoint. *)

open Sio_analysis

let fx name = Filename.concat "lint_fixtures" name
let render path = List.map Finding.to_string (Driver.analyze_file (fx path))
let render_paths paths = List.map Finding.to_string (Driver.analyze_paths (List.map fx paths))

let check_clean name file () =
  Alcotest.(check (list string)) (name ^ " is clean") [] (render file)

let check_clean_paths name paths () =
  Alcotest.(check (list string)) (name ^ " is clean") [] (render_paths paths)

(* --- rule registry ------------------------------------------------- *)

let test_rule_registry () =
  Alcotest.(check (list string))
    "rule ids"
    [
      "nondet-clock";
      "hashtbl-order";
      "module-state";
      "syscall-cost";
      "arena-slot";
      "nondet-taint";
      "resource-pairing";
      "scan-complexity";
      "charge-linearity";
      "stale-ignore";
    ]
    (List.map (fun r -> r.Rule.id) Driver.all_rules);
  List.iter
    (fun r -> Alcotest.(check bool) (r.Rule.id ^ " has doc") true (r.Rule.doc <> ""))
    Driver.all_rules

(* --- nondet-clock -------------------------------------------------- *)

let clock_msg what =
  what ^ " reads the host clock; simulation-visible time must come from Sio_sim.Time / Engine.now."

let random_msg what =
  what
  ^ " draws from the global Random state; runs stop being a pure function of their seed. Use Sio_sim.Rng."

let test_clock_bad () =
  Alcotest.(check (list string))
    "clock_bad findings"
    [
      Printf.sprintf "lint_fixtures/clock_bad.ml:2:13: nondet-clock: %s"
        (clock_msg "Unix.gettimeofday");
      Printf.sprintf "lint_fixtures/clock_bad.ml:3:17: nondet-clock: %s"
        (clock_msg "Unix.time");
      Printf.sprintf "lint_fixtures/clock_bad.ml:4:21: nondet-clock: %s"
        (clock_msg "Sys.time");
      Printf.sprintf "lint_fixtures/clock_bad.ml:5:16: nondet-clock: %s"
        (random_msg "Random.float");
      Printf.sprintf "lint_fixtures/clock_bad.ml:6:14: nondet-clock: %s"
        (random_msg "Random.bool");
    ]
    (render "clock_bad.ml")

(* --- hashtbl-order ------------------------------------------------- *)

let order_msg f =
  "Hashtbl." ^ f
  ^ " element order can escape into simulation-visible behaviour; sort the result immediately, rebuild into an ordered Fd_map, or annotate [@lint.ignore \"reason\"]."

let test_hashtbl_bad () =
  Alcotest.(check (list string))
    "hashtbl_order_bad findings"
    [
      Printf.sprintf "lint_fixtures/hashtbl_order_bad.ml:2:14: hashtbl-order: %s"
        (order_msg "fold");
      Printf.sprintf "lint_fixtures/hashtbl_order_bad.ml:4:21: hashtbl-order: %s"
        (order_msg "iter");
      (* Sorting on the *next* line is still a violation: the rule is
         syntactic, the sort must wrap the enumeration. *)
      Printf.sprintf "lint_fixtures/hashtbl_order_bad.ml:7:13: hashtbl-order: %s"
        (order_msg "fold");
      (* An Fd_map rebuild with trailing code is still a violation:
         the rebuild must be the whole callback body. *)
      Printf.sprintf "lint_fixtures/hashtbl_order_bad.ml:13:2: hashtbl-order: %s"
        (order_msg "iter");
    ]
    (render "hashtbl_order_bad.ml")

(* --- module-state (interprocedural race check) --------------------- *)

(* Declarations alone no longer fire: the rule needs a write reachable
   from a Domain_pool root, and neither file has one. *)
let test_module_state_decls_clean =
  check_clean "module_state_bad (declarations only, no pool in sight)" "module_state_bad.ml"

let race_msg ~name ~ctor ~writer ~wfile ~wline ~op ~root =
  Printf.sprintf
    "module-level mutable state `%s` (%s) is written on a Domain_pool-reachable path: `%s` (%s:%d, %s) runs in task code reachable from `%s`; use Atomic.t or annotate the binding [@lint.ignore \"reason\"]."
    name ctor writer wfile wline op root

let test_race_bad () =
  Alcotest.(check (list string))
    "race_bad findings"
    [
      (* [hidden] sits behind [include struct ... end] — the index must
         still see it (the per-file rule used to skip include bodies). *)
      Printf.sprintf "lint_fixtures/race_bad/state.ml:6:2: module-state: %s"
        (race_msg ~name:"hidden" ~ctor:"ref" ~writer:"State.bump"
           ~wfile:"lint_fixtures/race_bad/state.ml" ~wline:10 ~op:":="
           ~root:"Runner.run");
      Printf.sprintf "lint_fixtures/race_bad/state.ml:9:0: module-state: %s"
        (race_msg ~name:"counters" ~ctor:"Hashtbl.create" ~writer:"State.record"
           ~wfile:"lint_fixtures/race_bad/state.ml" ~wline:11 ~op:"Hashtbl.replace"
           ~root:"Runner.run");
    ]
    (render_paths [ "race_bad" ])

(* --- syscall-cost (interprocedural charge proof) ------------------- *)

let cost_msg name checked =
  Printf.sprintf
    "syscall entry point `%s` never charges the CPU on any resolved call path (%s); add a charge (enter/Host.charge/Cpu.consume) or delegate to a callee that charges."
    name checked

let test_cost_bad () =
  Alcotest.(check (list string))
    "cost_bad findings"
    [
      Printf.sprintf "lint_fixtures/cost_bad/kernel.ml:2:0: syscall-cost: %s"
        (cost_msg "listen" "no resolved callees to delegate to");
      Printf.sprintf "lint_fixtures/cost_bad/kernel.ml:7:0: syscall-cost: %s"
        (cost_msg "free_syscall" "no resolved callees to delegate to");
    ]
    (render "cost_bad/kernel.ml")

(* Reverting the charge in a delegation target must surface at the
   entry point, naming the call path that stopped charging. *)
let test_cost_interproc_bad () =
  Alcotest.(check (list string))
    "cost_interproc_bad findings"
    [
      Printf.sprintf "lint_fixtures/cost_interproc_bad/kernel.ml:4:0: syscall-cost: %s"
        (cost_msg "poll" "delegations checked: poll -> Npoll.wait");
    ]
    (render_paths [ "cost_interproc_bad" ])

let test_cost_only_kernel_ml () =
  (* The rule keys on the file name: the same source under another
     name is out of scope. *)
  let str = Driver.parse_impl (fx "cost_bad/kernel.ml") in
  let ctx = Context.of_file "lint_fixtures/other.ml" str in
  Alcotest.(check int)
    "not applied outside kernel.ml" 0
    (List.length (Rule_syscall_cost.rule.Rule.check ~ctx ~path:"lint_fixtures/other.ml" str))

(* --- arena-slot ---------------------------------------------------- *)

let slot_msg what =
  "a raw Conn_arena slot escapes into " ^ what
  ^ "; slots are reused after free, so the stored index silently renames itself to a later connection. Pack (slot, generation) into an immutable handle at the alloc site, or annotate [@lint.ignore \"reason\"]."

let test_arena_slot_bad () =
  Alcotest.(check (list string))
    "arena_slot_bad findings"
    [
      Printf.sprintf "lint_fixtures/arena_slot_bad.ml:13:26: arena-slot: %s"
        (slot_msg "a Hashtbl argument");
      Printf.sprintf "lint_fixtures/arena_slot_bad.ml:15:39: arena-slot: %s"
        (slot_msg "a ref cell");
      Printf.sprintf "lint_fixtures/arena_slot_bad.ml:19:21: arena-slot: %s"
        (slot_msg "a mutable record field");
    ]
    (render "arena_slot_bad.ml")

(* --- stale-ignore (suppression auditing) --------------------------- *)

let test_stale_ignore_bad () =
  Alcotest.(check (list string))
    "stale_ignore_bad findings"
    [
      "lint_fixtures/stale_ignore_bad.ml:5:0: stale-ignore: stale suppression [@lint.ignore \"was: Hashtbl.iter order escaped; table since replaced by Fd_map\"]: removing it produces no findings, so the hazard it excused is gone; delete the annotation.";
    ]
    (render "stale_ignore_bad.ml")

let test_audit_ignores () =
  (* [Ignores.collect] is what --audit-ignores prints: every
     suppression site with its reason, in position order. *)
  let sites path = Ignores.collect (Driver.parse_impl (fx path)) in
  Alcotest.(check (list (option string)))
    "clock_ok suppression reasons"
    [ Some "host-side measurement, not simulation time" ]
    (List.map (fun (s : Ignores.site) -> s.reason) (sites "clock_ok.ml"));
  Alcotest.(check (list (option string)))
    "cost_ok suppression reasons"
    [ Some "charged in Poll.wait" ]
    (List.map (fun (s : Ignores.site) -> s.reason) (sites "cost_ok/kernel.ml"))

(* --- call graph ---------------------------------------------------- *)

let callgraph () =
  let files = [ fx "callgraph/alpha.ml"; fx "callgraph/beta.ml" ] in
  Callgraph.build
    (Symbol_index.build (List.map (fun f -> (f, Driver.parse_impl f)) files))

let node graph name =
  match Callgraph.find graph name with
  | Some n -> n
  | None -> Alcotest.failf "no callgraph node %s" name

let alpha = "lint_fixtures/callgraph/alpha.ml#Alpha."
let beta = "lint_fixtures/callgraph/beta.ml#Beta."

let test_callgraph_edges () =
  let g = callgraph () in
  Alcotest.(check (list string))
    "direct same-module call" [ alpha ^ "base" ]
    (node g (alpha ^ "helper")).Callgraph.callees;
  Alcotest.(check (list string))
    "cross-module call resolves through the qualified name"
    [ alpha ^ "helper" ]
    (node g (beta ^ "cross")).Callgraph.callees;
  (* [helper] is defined in both files; the unqualified call in beta.ml
     must resolve to beta's own definition, never alpha's. *)
  Alcotest.(check (list string))
    "shadowed unqualified name stays file-local" [ beta ^ "helper" ]
    (node g (beta ^ "local")).Callgraph.callees

let test_callgraph_conservative () =
  let g = callgraph () in
  let higher = node g (beta ^ "higher") in
  Alcotest.(check (list string))
    "applying a parameter yields no edge" [] higher.Callgraph.callees;
  Alcotest.(check bool)
    "the unknown head is recorded as unresolved" true
    (List.mem "f" higher.Callgraph.unresolved)

let prop_reachability_monotone =
  (* Adding edges can only grow the reachable set — the property that
     makes every over-approximation in the analysis safe. *)
  let lbl (a, b) = (string_of_int a, string_of_int b) in
  QCheck.Test.make ~name:"reachability is monotone in the edge set" ~count:200
    QCheck.(pair (small_list (pair (int_bound 7) (int_bound 7)))
              (small_list (pair (int_bound 7) (int_bound 7))))
    (fun (e1, e2) ->
      let roots = [ "0" ] in
      let r1 = Reachability.reachable ~edges:(List.map lbl e1) ~roots in
      let r2 = Reachability.reachable ~edges:(List.map lbl (e1 @ e2)) ~roots in
      List.for_all (fun n -> List.mem n r2) r1)

(* --- dataflow ------------------------------------------------------ *)

let prop_dataflow_monotone =
  (* The engine's safety argument in one property: adding call edges
     can only grow the set of (node, fact) conclusions — provenance
     may change (first path wins), fact membership never shrinks. The
     generator produces arbitrary small digraphs including cycles, so
     every run also witnesses termination of the fixpoint. *)
  let lbl (a, b) = (string_of_int a, string_of_int b) in
  QCheck.Test.make ~name:"dataflow propagation is monotone in the edge set" ~count:200
    QCheck.(
      triple
        (small_list (pair (int_bound 7) (int_bound 7)))
        (small_list (pair (int_bound 7) (int_bound 7)))
        (small_list (pair (int_bound 7) (int_bound 3))))
    (fun (e1, e2, seeds) ->
      let seeds = List.map (fun (n, f) -> (string_of_int n, "fact" ^ string_of_int f)) seeds in
      let r1 = Dataflow.propagate ~edges:(List.map lbl e1) ~seeds in
      let r2 = Dataflow.propagate ~edges:(List.map lbl (e1 @ e2)) ~seeds in
      List.for_all (fun nf -> List.mem nf r2) r1)

let prop_dataflow_matches_reachability =
  (* Facts flow callee-to-caller, so a fact seeded at [n] holds exactly
     at the nodes that reach [n] — i.e. reachability over reversed
     edges. Pins the engine to the already-trusted fixpoint. *)
  let lbl (a, b) = (string_of_int a, string_of_int b) in
  QCheck.Test.make ~name:"dataflow agrees with reachability on reversed edges" ~count:200
    QCheck.(small_list (pair (int_bound 7) (int_bound 7)))
    (fun e ->
      let edges = List.map lbl e in
      let holds =
        Dataflow.propagate ~edges ~seeds:[ ("0", "f") ]
        |> List.map fst |> List.sort_uniq String.compare
      in
      let reach =
        Reachability.reachable
          ~edges:(List.map (fun (a, b) -> (b, a)) edges)
          ~roots:[ "0" ]
        |> List.sort_uniq String.compare
      in
      holds = reach)

(* --- nondet-taint -------------------------------------------------- *)

let test_taint_bad () =
  Alcotest.(check (list string))
    "taint_bad findings"
    [
      "lint_fixtures/taint_bad/main.ml:4:23: nondet-taint: host RSS measurement \
       (Host_mem.rss_bytes) flows into byte-identity sink Report.csv_of_series as an \
       argument, so the output is no longer a pure function of the seed; keep host \
       measurements in JSON report fields (or sort the enumeration) instead. flow: \
       argument of Report.csv_of_series -> Main.tag -> Host_mem.rss_bytes \
       (lint_fixtures/taint_bad/main.ml:3)";
      "lint_fixtures/taint_bad/report.ml:6:0: nondet-taint: byte-identity sink \
       Report.csv_of_series transitively performs a host RSS measurement \
       (Host_mem.rss_bytes) along resolved calls, so its output depends on the host; \
       move the measurement out of the sink's call region (JSON report fields are the \
       sanctioned home). flow: Report.csv_of_series -> Report.row -> read of tainted \
       field rss -> stored in field rss -> Host_mem.rss_bytes \
       (lint_fixtures/taint_bad/experiment.ml:5)";
    ]
    (render_paths [ "taint_bad" ])

(* Every figure writes through the one [Report.csv_of_series]: a host
   measurement smuggled in by a figure on another axis (idle count) is
   caught exactly as on the rate axis. *)
let test_taint_figure_bad () =
  Alcotest.(check (list string))
    "taint_figure_bad findings"
    [
      "lint_fixtures/taint_figure_bad/report.ml:3:0: nondet-taint: byte-identity sink \
       Report.csv_of_series transitively performs a host RSS measurement \
       (Host_mem.rss_bytes) along resolved calls, so its output depends on the host; \
       move the measurement out of the sink's call region (JSON report fields are the \
       sanctioned home). flow: Report.csv_of_series -> Report.row -> read of tainted \
       field outcome -> stored in field outcome -> Host_mem.rss_bytes \
       (lint_fixtures/taint_figure_bad/figures.ml:7)";
    ]
    (render_paths [ "taint_figure_bad" ])

let test_taint_flow_is_interprocedural () =
  (* The SARIF contract: the sink-region finding's flow must walk the
     resolved call chain across files, sink end first, source origin
     last. *)
  let fs = Driver.analyze_paths [ fx "taint_bad" ] in
  match
    List.find_opt (fun f -> f.Finding.file = fx "taint_bad/report.ml") fs
  with
  | None -> Alcotest.fail "no sink-region finding in report.ml"
  | Some f ->
      let steps = f.Finding.flow in
      Alcotest.(check bool) "at least four steps" true (List.length steps >= 4);
      let files = List.sort_uniq compare (List.map (fun s -> s.Finding.sfile) steps) in
      Alcotest.(check bool) "flow spans more than one file" true (List.length files > 1);
      (match steps with
      | first :: _ ->
          Alcotest.(check string) "sink end first" "Report.csv_of_series" first.Finding.swhat
      | [] -> Alcotest.fail "empty flow");
      (match List.rev steps with
      | origin :: _ ->
          Alcotest.(check string) "source origin last" "Host_mem.rss_bytes"
            origin.Finding.swhat
      | [] -> ())

(* --- resource-pairing ---------------------------------------------- *)

let test_pairing_bad () =
  Alcotest.(check (list string))
    "pairing_bad findings"
    [
      "lint_fixtures/pairing_bad/backend.ml:3:22: resource-pairing: Socket.add_watcher \
       acquires readiness watcher here and module Backend mentions a release \
       (Socket.remove_watcher), but only inside dead code (Backend.unused_teardown is \
       referenced by nothing), so no path ever releases; call the release from the \
       close/error paths. reached via: Backend.watch -> acquire: Socket.add_watcher \
       (lint_fixtures/pairing_bad/backend.ml:3)";
      "lint_fixtures/pairing_bad/ring.ml:3:18: resource-pairing: Zc_ring.create \
       acquires transmit-ring reservation here but module Ring never mentions a \
       matching release (Zc_ring.destroy); release on every close/error path, or \
       annotate the acquire with [@lint.ignore \"reason\"] if the resource is \
       instance-lifetime. reached via: Ring.accept_one -> Ring.attach -> acquire: \
       Zc_ring.create (lint_fixtures/pairing_bad/ring.ml:3)";
      "lint_fixtures/pairing_bad/server.ml:3:17: resource-pairing: Host.mem_reserve \
       acquires modeled kernel memory here but module Server never mentions a matching \
       release (Host.mem_release); release on every close/error path, or annotate the \
       acquire with [@lint.ignore \"reason\"] if the resource is instance-lifetime. \
       reached via: Server.accept_one -> Server.admit -> acquire: Host.mem_reserve \
       (lint_fixtures/pairing_bad/server.ml:3)";
    ]
    (render_paths [ "pairing_bad" ])

(* --- driver: overlapping roots, ordering, parse errors ------------- *)

let test_overlapping_roots () =
  (* A file reachable from two roots (or from differently-spelled
     roots) must be analyzed once, not reported twice. *)
  let whole = Driver.analyze_paths [ fx "" ] in
  Alcotest.(check (list string))
    "nested root adds nothing"
    (List.map Finding.to_string whole)
    (List.map Finding.to_string
       (Driver.analyze_paths [ fx ""; fx "cost_bad"; "./" ^ fx "race_bad" ^ "/" ]))

let test_rule_filter () =
  let only id =
    match Driver.find_rule id with Some r -> [ r ] | None -> Alcotest.fail ("no rule " ^ id)
  in
  let rules_of rules file =
    List.map (fun f -> f.Finding.rule) (Driver.analyze_file ~rules (fx file))
  in
  Alcotest.(check (list string))
    "only nondet-clock" [ "nondet-clock" ]
    (rules_of (only "nondet-clock") "mixed_bad.ml");
  Alcotest.(check (list string))
    "only hashtbl-order" [ "hashtbl-order" ]
    (rules_of (only "hashtbl-order") "mixed_bad.ml");
  Alcotest.(check bool) "unknown rule" true (Driver.find_rule "no-such-rule" = None)

let test_parse_error () =
  match Driver.analyze_file (fx "broken_syntax.ml") with
  | [ f ] ->
      Alcotest.(check string) "rule" "parse-error" f.Finding.rule;
      Alcotest.(check string) "file" "lint_fixtures/broken_syntax.ml" f.Finding.file;
      Alcotest.(check int) "line" 1 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one parse-error finding, got %d" (List.length fs)

let test_json () =
  let f =
    {
      Finding.file = "a \"b\".ml";
      line = 3;
      col = 7;
      rule = "nondet-clock";
      message = "x\ny";
      flow = [];
    }
  in
  Alcotest.(check string)
    "json escaping"
    {|{"file":"a \"b\".ml","line":3,"col":7,"rule":"nondet-clock","message":"x\ny"}|}
    (Finding.to_json f)

let test_paths_sorted () =
  (* Directory enumeration must not leak into output order: findings
     come back sorted by (file, line, col). Compare positional keys,
     not rendered strings — line 13 sorts before line 2 as a string. *)
  let fs = Driver.analyze_paths [ "lint_fixtures" ] in
  let keys = List.map (fun f -> (f.Finding.file, f.Finding.line, f.Finding.col)) fs in
  Alcotest.(check bool) "sorted" true (List.sort compare keys = keys);
  Alcotest.(check bool) "found fixture violations" true (List.length fs > 10)

(* --- SARIF --------------------------------------------------------- *)

let test_sarif_result () =
  let f =
    {
      Finding.file = "lib/a.ml";
      line = 2;
      col = 4;
      rule = "nondet-clock";
      message = "x \"y\"";
      flow = [];
    }
  in
  let out = Sarif.render ~rules:Driver.all_rules [ f ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "sarif contains %S" needle) true
        (let rec mem i =
           i + String.length needle <= String.length out
           && (String.equal (String.sub out i (String.length needle)) needle || mem (i + 1))
         in
         mem 0))
    [
      {|"$schema": "https://json.schemastore.org/sarif-2.1.0.json"|};
      {|"ruleId": "nondet-clock"|};
      {|"message": { "text": "x \"y\"" }|};
      {|"artifactLocation": { "uri": "lib/a.ml" }|};
      (* SARIF regions are 1-based; findings carry 0-based columns. *)
      {|"region": { "startLine": 2, "startColumn": 5 }|};
    ]

let test_sarif_code_flows () =
  (* A finding that carries provenance must render it as SARIF
     codeFlows: one threadFlow whose locations replay the steps in
     order, with 1-based regions. *)
  let f =
    {
      Finding.file = "lib/a.ml";
      line = 9;
      col = 2;
      rule = "nondet-taint";
      message = "m";
      flow =
        [
          { Finding.sfile = "lib/a.ml"; sline = 9; scol = 2; swhat = "A.sink" };
          { Finding.sfile = "lib/b.ml"; sline = 4; scol = 0; swhat = "B.origin" };
        ];
    }
  in
  let out = Sarif.render ~rules:Driver.all_rules [ f ] in
  let contains needle =
    let rec mem i =
      i + String.length needle <= String.length out
      && (String.equal (String.sub out i (String.length needle)) needle || mem (i + 1))
    in
    mem 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "sarif contains %S" needle) true
        (contains needle))
    [
      {|"codeFlows": [|};
      {|"threadFlows": [|};
      {|"message": { "text": "A.sink" },|};
      {|"message": { "text": "B.origin" },|};
      {|"artifactLocation": { "uri": "lib/b.ml" },|};
      {|"region": { "startLine": 4, "startColumn": 1 }|};
    ];
  (* And a flowless finding must not grow an empty codeFlows array. *)
  let plain = Sarif.render ~rules:Driver.all_rules [ { f with flow = [] } ] in
  Alcotest.(check bool) "no codeFlows without provenance" false
    (let needle = "codeFlows" in
     let rec mem i =
       i + String.length needle <= String.length plain
       && (String.equal (String.sub plain i (String.length needle)) needle || mem (i + 1))
     in
     mem 0)

(* --- scan-complexity & charge-linearity ---------------------------- *)

let test_complexity_bad () =
  Alcotest.(check (list string))
    "complexity_bad findings"
    [
      {|lint_fixtures/complexity_bad/batch_abuse.ml:8:2: charge-linearity: in certified Batch_abuse.rescan, this Fd_map.iter loop of class O(active) charges O(interests) per iteration (total O(active*interests)): per-iteration charge must be O(1) — charge skipped work in bulk outside the loop (DESIGN.md section 5). flow: Fd_map.iter loop, class O(active) (lint_fixtures/complexity_bad/batch_abuse.ml:8)|};
      {|lint_fixtures/complexity_bad/batch_abuse.ml:11:8: charge-linearity: charge_batch of class O(interests) sits inside a loop of class O(active): the skipped population is re-charged every iteration, making the total O(active) * O(interests) instead of a single bulk charge; hoist the charge_batch out of the loop|};
      {|lint_fixtures/complexity_bad/batch_abuse.ml:16:4: charge-linearity: charge_batch ~count has no inferable size class (O(top) <- result of call Mystery.size has no size class at lint_fixtures/complexity_bad/batch_abuse.ml:17); bind the count to a named population size (a vocabulary name like idle_total, or a Length of the skipped table) so the bulk charge certifies what was skipped|};
      {|lint_fixtures/complexity_bad/devpoll_redux.ml:7:0: scan-complexity: Devpoll_redux.scan is annotated [@complexity "O(active)"] but its inferred structural cost O(interests) is not entailed: O(interests) arises from Interest_table.iter loop, class O(interests) (lint_fixtures/complexity_bad/devpoll_redux.ml:9). flow: certified definition Devpoll_redux.scan -> Interest_table.iter loop, class O(interests) (lint_fixtures/complexity_bad/devpoll_redux.ml:9)|};
      {|lint_fixtures/complexity_bad/stale.ml:7:0: scan-complexity: stale annotation on Stale.lookup_one: [@complexity "O(interests)"] is looser than the inferred structural cost O(1); tighten the annotation to the inferred bound so it cannot mask a future regression|};
      {|lint_fixtures/complexity_bad/stale.ml:9:0: scan-complexity: unparseable [@complexity "O(n^2)"] on Stale.weird: expected "O(term + term)" with terms multiplying 1, active, ready, interests, conns, slots (n_-prefixed spellings accepted)|};
    ]
    (render_paths [ "complexity_bad" ])

let test_complexity_sarif_flow () =
  (* the adversarial O(interests) re-derivation must carry its full
     provenance as a SARIF codeFlow: entry point, then the loop *)
  let findings = Driver.analyze_paths [ fx "complexity_bad" ] in
  let f =
    List.find
      (fun (f : Finding.t) -> String.equal f.rule "scan-complexity" && f.flow <> [])
      findings
  in
  let sarif = Sarif.render ~rules:Driver.all_rules [ f ] in
  let contains needle hay =
    let n = String.length needle in
    let rec mem i = i + n <= String.length hay && (String.equal (String.sub hay i n) needle || mem (i + 1)) in
    mem 0
  in
  Alcotest.(check bool) "codeFlows present" true (contains "codeFlows" sarif);
  Alcotest.(check bool)
    "flow names the certified definition" true
    (contains "certified definition Devpoll_redux.scan" sarif);
  Alcotest.(check bool)
    "flow names the offending loop" true
    (contains "Interest_table.iter loop, class O(interests)" sarif)

let test_linter_deterministic () =
  (* satellite: the linter's own output is a pure function of its
     input — SARIF and the complexity report generated twice in one
     process must be byte-identical *)
  let roots = [ fx "complexity_ok"; fx "complexity_bad"; fx "cost_ok" ] in
  let r1 = Driver.complexity_report roots in
  let r2 = Driver.complexity_report roots in
  Alcotest.(check string) "complexity report byte-identical" r1 r2;
  let sarif () = Sarif.render ~rules:Driver.all_rules (Driver.analyze_paths roots) in
  let s1 = sarif () in
  let s2 = sarif () in
  Alcotest.(check string) "sarif byte-identical" s1 s2

let test_jobs_identical () =
  (* satellite: --jobs N merges in path order behind a warm context,
     so parallel output is byte-identical to sequential *)
  let roots = [ fx "complexity_bad"; fx "cost_interproc_bad"; fx "taint_bad" ] in
  let seq = List.map Finding.to_string (Driver.analyze_paths roots) in
  let par = List.map Finding.to_string (Driver.analyze_paths ~jobs:3 roots) in
  Alcotest.(check (list string)) "--jobs 3 matches sequential" seq par

(* --- the summary lattice ------------------------------------------- *)

let cost_arb =
  let gen =
    QCheck.Gen.(
      frequency
        [
          ( 8,
            map
              (fun ms -> Complexity.of_monos (List.map (fun m -> (m, [])) ms))
              (list_size (int_range 1 3)
                 (list_size (int_range 0 2) (oneofl Complexity.params))) );
          (1, return (Complexity.Top []));
        ])
  in
  QCheck.make ~print:Complexity.render_cost gen

let prop_join_comm =
  QCheck.Test.make ~name:"cost join is commutative" ~count:500
    QCheck.(pair cost_arb cost_arb)
    (fun (a, b) -> Complexity.(equal_cost (join a b) (join b a)))

let prop_join_assoc =
  QCheck.Test.make ~name:"cost join is associative" ~count:500
    QCheck.(triple cost_arb cost_arb cost_arb)
    (fun (a, b, c) -> Complexity.(equal_cost (join a (join b c)) (join (join a b) c)))

let prop_join_idem =
  QCheck.Test.make ~name:"cost join is idempotent" ~count:500 cost_arb (fun a ->
      Complexity.(equal_cost (join a a) a))

let prop_le_partial_order =
  QCheck.Test.make ~name:"entailment is a partial order with join as lub" ~count:500
    QCheck.(pair cost_arb cost_arb)
    (fun (a, b) ->
      let open Complexity in
      le a a
      && le a (join a b)
      && le b (join a b)
      && ((not (le a b && le b a)) || equal_cost a b))

let prop_le_transitive =
  QCheck.Test.make ~name:"entailment is transitive" ~count:500
    QCheck.(triple cost_arb cost_arb cost_arb)
    (fun (a, b, c) ->
      let open Complexity in
      (* join forces comparable pairs so the premise is often live *)
      let b = join a b in
      let c = join b c in
      (not (le a b && le b c)) || le a c)

let prop_mult_monotone =
  QCheck.Test.make ~name:"loop multiplication is monotone" ~count:500
    QCheck.(triple cost_arb cost_arb cost_arb)
    (fun (k, a, b) ->
      let open Complexity in
      let step = { Finding.sfile = "gen.ml"; sline = 1; scol = 0; swhat = "loop" } in
      (not (le a b)) || le (mult ~step k a) (mult ~step k b))

let prop_edge_monotone =
  (* generated call chains: each function sequentially includes a call
     to the previous one, so along every callgraph edge the caller's
     host summary entails the callee's *)
  let param_names = [ "entries"; "acts"; "events"; "conns"; "slots" ] in
  QCheck.Test.make ~name:"summaries are monotone along generated callgraph edges"
    ~count:60
    QCheck.(pair (int_bound 2) (small_list bool))
    (fun (extra, shape) ->
      let n = 2 + extra in
      let fn i =
        let p = List.nth param_names ((i + List.length shape) mod 5) in
        let iterate = match List.nth_opt shape i with Some b -> b | None -> false in
        if i = 0 then
          Printf.sprintf "let f0 %s = %s" p
            (if iterate then Printf.sprintf "List.iter (fun x -> ignore x) %s" p
             else Printf.sprintf "ignore %s" p)
        else
          Printf.sprintf "let f%d %s = ignore (f%d %s)%s" i p (i - 1) p
            (if iterate then Printf.sprintf "; List.iter (fun x -> ignore x) %s" p
             else "")
      in
      let src = String.concat "\n" (List.init n fn) in
      let str = Ppxlib.Parse.implementation (Lexing.from_string src) in
      let index = Symbol_index.build [ ("gen.ml", str) ] in
      let r = Complexity.analyze index in
      let host i =
        let s =
          List.find
            (fun (s : Symbol_index.symbol) ->
              s.qname = [ "Gen"; Printf.sprintf "f%d" i ])
            index.Symbol_index.symbols
        in
        (Complexity.SMap.find s.uid r.Complexity.summaries).Complexity.host
      in
      List.for_all
        (fun i -> Complexity.le (host i) (host (i + 1)))
        (List.init (n - 1) Fun.id))

let test_lattice_units () =
  let open Complexity in
  (* the containment chain *)
  Alcotest.(check bool) "ready <= active" true (le (poly1 "ready") (poly1 "active"));
  Alcotest.(check bool) "active <= interests" true (le (poly1 "active") (poly1 "interests"));
  Alcotest.(check bool) "interests </= active" false (le (poly1 "interests") (poly1 "active"));
  Alcotest.(check bool) "conns incomparable to active" false (le (poly1 "conns") (poly1 "active"));
  Alcotest.(check bool) "active incomparable to conns" false (le (poly1 "active") (poly1 "conns"));
  (* products compare pointwise as multisets *)
  Alcotest.(check bool) "ready*ready <= active*interests" true
    (mono_le [ "ready"; "ready" ] [ "active"; "interests" ]);
  Alcotest.(check bool) "active*active </= interests" false
    (mono_le [ "active"; "active" ] [ "interests" ]);
  (* annotation grammar round-trips *)
  let eq_annot s c =
    match parse_annot s with Some p -> equal_cost p c | None -> false
  in
  Alcotest.(check bool) "O(1)" true (eq_annot "O(1)" const);
  Alcotest.(check bool) "O(active)" true (eq_annot "O(active)" (poly1 "active"));
  Alcotest.(check bool) "O(n_active)" true (eq_annot "O(n_active)" (poly1 "active"));
  Alcotest.(check bool) "O(active + ready) normalizes" true
    (eq_annot "O(active + ready)" (poly1 "active"));
  Alcotest.(check bool) "O(active*ready + 1)" true
    (eq_annot "O(active * ready + 1)"
       (of_monos [ ([ "active"; "ready" ], []) ]));
  Alcotest.(check bool) "O(n^2) rejected" true (parse_annot "O(n^2)" = None);
  Alcotest.(check bool) "empty rejected" true (parse_annot "" = None);
  Alcotest.(check bool) "bare name rejected" true (parse_annot "active" = None)

let test_sarif_clean_fixture () =
  (* The committed fixture is the SARIF output of a clean run over the
     real tree; regenerate with
       dune exec bin/sio_lint.exe -- --format sarif lib bin bench examples *)
  let committed =
    In_channel.with_open_bin (fx "clean_run.sarif") In_channel.input_all
  in
  Alcotest.(check string)
    "clean run matches committed SARIF" committed
    (Sarif.render ~rules:Driver.all_rules [])

let suite =
  [
    Alcotest.test_case "rule registry" `Quick test_rule_registry;
    Alcotest.test_case "nondet-clock: violations" `Quick test_clock_bad;
    Alcotest.test_case "nondet-clock: conforming" `Quick (check_clean "clock_ok" "clock_ok.ml");
    Alcotest.test_case "hashtbl-order: violations" `Quick test_hashtbl_bad;
    Alcotest.test_case "hashtbl-order: conforming" `Quick
      (check_clean "hashtbl_order_ok" "hashtbl_order_ok.ml");
    Alcotest.test_case "module-state: declarations alone are clean" `Quick
      test_module_state_decls_clean;
    Alcotest.test_case "module-state: conforming" `Quick
      (check_clean "module_state_ok" "module_state_ok.ml");
    Alcotest.test_case "module-state: pool-reachable writes" `Quick test_race_bad;
    Alcotest.test_case "module-state: atomic/off-pool writes are clean" `Quick
      (check_clean_paths "race_ok" [ "race_ok" ]);
    Alcotest.test_case "syscall-cost: violations" `Quick test_cost_bad;
    Alcotest.test_case "syscall-cost: conforming" `Quick
      (check_clean "cost_ok" "cost_ok/kernel.ml");
    Alcotest.test_case "syscall-cost: cross-module delegation proven" `Quick
      (check_clean_paths "cost_interproc_ok" [ "cost_interproc_ok" ]);
    Alcotest.test_case "syscall-cost: reverted callee charge surfaces" `Quick
      test_cost_interproc_bad;
    Alcotest.test_case "syscall-cost: scoped to kernel.ml" `Quick test_cost_only_kernel_ml;
    Alcotest.test_case "arena-slot: violations" `Quick test_arena_slot_bad;
    Alcotest.test_case "arena-slot: conforming" `Quick
      (check_clean "arena_slot_ok" "arena_slot_ok.ml");
    Alcotest.test_case "stale-ignore: outlived suppression fires" `Quick test_stale_ignore_bad;
    Alcotest.test_case "stale-ignore: earning suppressions stay silent" `Quick
      (check_clean "clock_ok (audited)" "clock_ok.ml");
    Alcotest.test_case "suppression audit surface" `Quick test_audit_ignores;
    Alcotest.test_case "callgraph: resolved edges" `Quick test_callgraph_edges;
    Alcotest.test_case "callgraph: unknown heads stay conservative" `Quick
      test_callgraph_conservative;
    QCheck_alcotest.to_alcotest prop_reachability_monotone;
    QCheck_alcotest.to_alcotest prop_dataflow_monotone;
    QCheck_alcotest.to_alcotest prop_dataflow_matches_reachability;
    Alcotest.test_case "nondet-taint: violations with flows" `Quick test_taint_bad;
    Alcotest.test_case "nondet-taint: flow is interprocedural" `Quick
      test_taint_flow_is_interprocedural;
    Alcotest.test_case "nondet-taint: non-rate figure into the CSV writer" `Quick
      test_taint_figure_bad;
    Alcotest.test_case "nondet-taint: conforming" `Quick
      (check_clean_paths "taint_ok" [ "taint_ok" ]);
    Alcotest.test_case "resource-pairing: violations with flows" `Quick test_pairing_bad;
    Alcotest.test_case "resource-pairing: conforming" `Quick
      (check_clean_paths "pairing_ok" [ "pairing_ok" ]);
    Alcotest.test_case "sarif code flows" `Quick test_sarif_code_flows;
    Alcotest.test_case "overlapping roots analyzed once" `Quick test_overlapping_roots;
    Alcotest.test_case "--rule filtering" `Quick test_rule_filter;
    Alcotest.test_case "parse errors are findings" `Quick test_parse_error;
    Alcotest.test_case "json output" `Quick test_json;
    Alcotest.test_case "findings sorted across files" `Quick test_paths_sorted;
    Alcotest.test_case "sarif rendering" `Quick test_sarif_result;
    Alcotest.test_case "sarif clean-run fixture" `Quick test_sarif_clean_fixture;
    Alcotest.test_case "scan-complexity/charge-linearity: violations" `Quick
      test_complexity_bad;
    Alcotest.test_case "scan-complexity/charge-linearity: conforming" `Quick
      (check_clean_paths "complexity_ok" [ "complexity_ok" ]);
    Alcotest.test_case "scan-complexity: sarif codeFlow" `Quick
      test_complexity_sarif_flow;
    Alcotest.test_case "linter self-determinism" `Quick test_linter_deterministic;
    Alcotest.test_case "--jobs output byte-identical" `Quick test_jobs_identical;
    Alcotest.test_case "cost lattice units" `Quick test_lattice_units;
    QCheck_alcotest.to_alcotest prop_join_comm;
    QCheck_alcotest.to_alcotest prop_join_assoc;
    QCheck_alcotest.to_alcotest prop_join_idem;
    QCheck_alcotest.to_alcotest prop_le_partial_order;
    QCheck_alcotest.to_alcotest prop_le_transitive;
    QCheck_alcotest.to_alcotest prop_mult_monotone;
    QCheck_alcotest.to_alcotest prop_edge_monotone;
  ]
