(** Differential co-simulation oracle — see {!Oracle} interface. *)

module Driver = Core.Driver
module Engine = Sim.Engine

type dclass =
  | Output_mismatch
  | Spurious_fire
  | Missed_abort
  | Proved_fired
  | Liveness_unsound
  | Hang
  | Cycle_blowup
  | Crash

type divergence = { dclass : dclass; strategy : string; detail : string }

let class_name = function
  | Output_mismatch -> "output-mismatch"
  | Spurious_fire -> "spurious-fire"
  | Missed_abort -> "missed-abort"
  | Proved_fired -> "proved-fired"
  | Liveness_unsound -> "liveness-unsound"
  | Hang -> "hang"
  | Cycle_blowup -> "cycle-blowup"
  | Crash -> "crash"

let class_key d =
  if d.strategy = "" then class_name d.dclass
  else class_name d.dclass ^ ":" ^ d.strategy

type outcome = {
  source : string;
  divergences : divergence list;
  baseline_cycles : int option;
}

let agrees o = o.divergences = []

let default_strategies =
  List.filter (fun (name, _) -> name <> "carte") Driver.all_strategies

let default_max_cycles = 20_000
let default_watchdog = 500

(* Cycle-ratio bound: an instrumented strategy may legitimately run
   slower than baseline (checker latency, port contention), but past
   [ratio]x + [slack] the slowdown itself is a finding. *)
let ratio_bound = 16
let ratio_slack = 2048

let spin_procs sites = String.concat ", " (List.map fst sites)

let exn_detail stage e =
  Printf.sprintf "%s: %s" stage (Printexc.to_string e)

(* The golden software run is stuck when it deadlocks or spins out its
   step budget — either way the circuit agreeing means hanging too. *)
let sw_stuck (r : Interp.result) =
  match r.Interp.outcome with
  | Interp.Deadlocked _ | Interp.Fuel_exhausted -> true
  | Interp.Completed | Interp.Aborted _ | Interp.Runtime_error _ -> false

let differing_drains ~drains golden actual =
  List.filter
    (fun s ->
      let get l = try List.assoc s l with Not_found -> [] in
      get golden <> get actual)
    drains

(* Verdict of assertion [id], relying on the documented alignment:
   Absint verdicts are in {!Core.Assertion.extract} order, which is the
   id numbering. *)
let proved_ids (analysis : Analysis.Absint.result) =
  List.concat
    (List.mapi
       (fun i (v : Analysis.Absint.verdict) ->
         if v.vclass = Analysis.Absint.Proved then [ i ] else [])
       analysis.verdicts)

(* One strategy's circuit run compared against the golden software run.
   Returns the divergences it alone exhibits plus its finished cycle
   count (for the ratio check, applied by the caller).  [live] is the
   static liveness verdict of the unfaulted design: on a fault-free leg
   the circuit outcome must not contradict it — a proved deadlock-free
   design that hangs (or a certain-deadlock design that finishes) is a
   {!Liveness_unsound} finding against the analyzer itself. *)
let check_strategy ~options ~sw ~golden_drained ~proved ~live ~faults ~prog
    (sname, strategy) =
  let live_unsound mk =
    if faults <> [] then []
    else
      match mk live with
      | Some detail -> [ { dclass = Liveness_unsound; strategy = sname; detail } ]
      | None -> []
  in
  let unsound_on_hang what =
    live_unsound (function
      | Analysis.Live.Deadlock_free k ->
          Some
            (Printf.sprintf
               "analyzer proved deadlock-free (bound %d) but the circuit %s" k what)
      | _ -> None)
  in
  let unsound_on_finish =
    live_unsound (function
      | Analysis.Live.Deadlock w ->
          Some
            ("analyzer claimed certain deadlock ("
            ^ Analysis.Live.witness_to_string w
            ^ ") but the circuit finished")
      | _ -> None)
  in
  match Driver.compile ~strategy ~faults prog with
  | exception e ->
      ( [ { dclass = Crash; strategy = sname;
            detail = exn_detail "compile" e } ],
        None )
  | c -> (
      match Driver.simulate ~options c with
      | exception e ->
          ( [ { dclass = Crash; strategy = sname;
                detail = exn_detail "simulate" e } ],
            None )
      | r ->
          let eng = r.Driver.engine in
          let fired_proved =
            List.filter (fun id -> List.mem id proved) r.Driver.failed_assertions
          in
          let proved_div =
            List.map
              (fun id ->
                { dclass = Proved_fired; strategy = sname;
                  detail = Printf.sprintf "proved assertion #%d fired in circuit" id })
              fired_proved
          in
          let sw_aborted =
            match sw.Interp.outcome with Interp.Aborted _ -> true | _ -> false
          in
          let stripped = strategy.Driver.mode = Driver.Baseline in
          let divs, cycles =
            match eng.Engine.outcome with
            | Engine.Finished ->
                if sw_stuck sw then
                  ( [ { dclass = Hang; strategy = sname;
                        detail = "software run is stuck but circuit finishes" } ],
                    Some eng.Engine.cycles )
                else if sw_aborted then
                  if stripped then
                    (* assertions stripped: finishing is the only correct
                       behaviour; outputs legitimately differ from the
                       aborted software run *)
                    ([], Some eng.Engine.cycles)
                  else
                    ( [ { dclass = Missed_abort; strategy = sname;
                          detail =
                            "software aborted on an assertion; circuit finished \
                             without firing" } ],
                      Some eng.Engine.cycles )
                else
                  let diff =
                    differing_drains ~drains:options.Driver.drains golden_drained
                      eng.Engine.drained
                  in
                  ( (match diff with
                    | [] -> []
                    | streams ->
                        [ { dclass = Output_mismatch; strategy = sname;
                            detail =
                              "output differs on " ^ String.concat ", " streams } ]),
                    Some eng.Engine.cycles )
            | Engine.Aborted m ->
                if sw_aborted || (sw_stuck sw && not stripped) then
                  (* both sides flagged the program (an abort racing a
                     software hang still counts as detection) *) ([], None)
                else
                  ( [ { dclass = Spurious_fire; strategy = sname; detail = m } ],
                    None )
            | Engine.Hang blocked ->
                if sw_stuck sw then ([], None)
                else
                  ( [ { dclass = Hang; strategy = sname;
                        detail =
                          "circuit deadlock: "
                          ^ String.concat "; "
                              (Engine.describe_blocked c.Driver.fsmds blocked) } ],
                    None )
            | Engine.Livelock spinning ->
                if sw_stuck sw then ([], None)
                else
                  ( [ { dclass = Hang; strategy = sname;
                        detail = "circuit live-lock: " ^ spin_procs spinning } ],
                    None )
            | Engine.Out_of_cycles ->
                if sw_stuck sw then ([], None)
                else
                  ( [ { dclass = Cycle_blowup; strategy = sname;
                        detail =
                          Printf.sprintf "still running at the %d-cycle budget"
                            options.Driver.max_cycles } ],
                    None )
            | Engine.Sim_error m ->
                ( [ { dclass = Crash; strategy = sname;
                      detail = "simulator error: " ^ m } ],
                  None )
          in
          let live_divs =
            match eng.Engine.outcome with
            | Engine.Finished -> unsound_on_finish
            | Engine.Hang _ -> unsound_on_hang "deadlocked"
            | Engine.Livelock _ -> unsound_on_hang "live-locked (watchdog)"
            | Engine.Aborted _ | Engine.Out_of_cycles | Engine.Sim_error _ -> []
          in
          (proved_div @ live_divs @ divs, cycles))

(* Absint-vs-BMC cross-check: an assertion the abstract interpreter
   proved must not have a replay-confirmed counterexample — both
   verifiers over-approximate the same {!Interp} semantics, so a
   disagreement here is a real compiler/verifier bug, not stimulus
   luck.  Only meaningful on the unfaulted design (BMC models the
   original lowering), and only Violated counts: the bounded checker
   legitimately reports proved assertions as bounded/unknown. *)
let bmc_cross_check ~depth ~proved ~(absint : Analysis.Absint.result) prog =
  match Core.Verify.front_of prog with
  | exception e ->
      [ { dclass = Crash; strategy = "bmc"; detail = exn_detail "bmc front" e } ]
  | f ->
      List.concat_map
        (fun id ->
          match Core.Verify.check_target ~depth ~induction:0 f ~absint id with
          | exception e ->
              [ { dclass = Crash; strategy = "bmc";
                  detail = exn_detail (Printf.sprintf "bmc #%d" id) e } ]
          | r, _ -> (
              match r.Analysis.Verdict.pr_class with
              | Analysis.Verdict.Bviolated c ->
                  [ { dclass = Proved_fired; strategy = "bmc";
                      detail =
                        Printf.sprintf
                          "absint-proved assertion #%d violated by BMC at cycle \
                           %d (replay confirmed)"
                          id c } ]
              | _ -> []))
        proved

let check ?(faults = []) ?(max_cycles = default_max_cycles)
    ?(watchdog = default_watchdog) ?bmc_depth prog =
  (* Re-inject through the printer and parser: real locations, and the
     corpus reproducer is byte-for-byte what was checked. *)
  let source = Front.Pretty.program_to_string prog in
  match Front.Typecheck.parse_and_check source with
  | exception e ->
      {
        source;
        divergences =
          [ { dclass = Crash; strategy = ""; detail = exn_detail "reinject" e } ];
        baseline_cycles = None;
      }
  | prog -> (
      let options =
        let o = Mine.Trace.auto_options prog in
        { o with Driver.max_cycles; watchdog = Some watchdog }
      in
      (* Analysis verdicts: a Proved assertion must never fire, in either
         execution. *)
      let analysis =
        try Some (Analysis.Absint.analyze prog) with _ -> None
      in
      let analysis_div =
        match analysis with
        | Some _ -> []
        | None ->
            [ { dclass = Crash; strategy = ""; detail = "analysis crashed" } ]
      in
      let proved =
        match analysis with Some a -> proved_ids a | None -> []
      in
      (* Static liveness verdict of the unfaulted design under this
         stimulus: cross-checked against what actually happens in both
         executions (a wrong claim in either direction is a
         Liveness_unsound divergence, a bug in the analyzer). *)
      let live, live_div =
        match
          Analysis.Live.analyze ~params:options.Driver.params
            ~feeds:(List.map (fun (s, vs) -> (s, List.length vs)) options.Driver.feeds)
            ~drains:options.Driver.drains prog
        with
        | v -> (v, [])
        | exception e ->
            ( Analysis.Live.Unknown "liveness analyzer crashed",
              [ { dclass = Crash; strategy = "";
                  detail = exn_detail "liveness" e } ] )
      in
      let bmc_div =
        match (bmc_depth, analysis) with
        | Some depth, Some absint when proved <> [] && faults = [] ->
            bmc_cross_check ~depth ~proved ~absint prog
        | _ -> []
      in
      (* Faults never reach the golden software run, so the compile
         backing it stays unfaulted. *)
      match Driver.compile ~strategy:Driver.baseline prog with
      | exception e ->
          {
            source;
            divergences =
              analysis_div @ live_div @ bmc_div
              @ [ { dclass = Crash; strategy = "baseline";
                    detail = exn_detail "compile" e } ];
            baseline_cycles = None;
          }
      | c_base ->
          let sw =
            try Driver.software_sim ~options c_base
            with e ->
              {
                Interp.outcome = Interp.Runtime_error (exn_detail "interp" e);
                failures = [];
                drained = [];
                log = [];
              }
          in
          let sw_div =
            match sw.Interp.outcome with
            | Interp.Runtime_error m ->
                [ { dclass = Crash; strategy = "";
                    detail = "software simulation: " ^ m } ]
            | _ -> []
          in
          (* A software abort on a Proved assertion is an analysis-vs-
             interpreter divergence in its own right. *)
          let sw_proved_div =
            match (sw.Interp.outcome, analysis) with
            | Interp.Aborted f, Some a ->
                List.concat
                  (List.mapi
                     (fun i (v : Analysis.Absint.verdict) ->
                       if
                         v.vclass = Analysis.Absint.Proved
                         && v.vproc = f.Interp.fproc
                         && v.vloc = f.Interp.floc
                       then
                         [ { dclass = Proved_fired; strategy = "";
                             detail =
                               Printf.sprintf
                                 "proved assertion #%d fired in software" i } ]
                       else [])
                     a.Analysis.Absint.verdicts)
            | _ -> []
          in
          (* The interpreter is ground truth for the program's own
             semantics: a deadlock there refutes [Deadlock_free];
             completion refutes [Deadlock].  ([Fuel_exhausted] proves
             nothing in either direction.) *)
          let sw_live_div =
            match (live, sw.Interp.outcome) with
            | Analysis.Live.Deadlock_free k, Interp.Deadlocked _ ->
                [ { dclass = Liveness_unsound; strategy = "";
                    detail =
                      Printf.sprintf
                        "analyzer proved deadlock-free (bound %d) but software \
                         simulation deadlocked" k } ]
            | Analysis.Live.Deadlock w, Interp.Completed ->
                [ { dclass = Liveness_unsound; strategy = "";
                    detail =
                      "analyzer claimed certain deadlock ("
                      ^ Analysis.Live.witness_to_string w
                      ^ ") but software simulation completed" } ]
            | _ -> []
          in
          let golden_drained = sw.Interp.drained in
          if sw_div <> [] then
            (* the golden run itself crashed: nothing differential left *)
            {
              source;
              divergences = analysis_div @ live_div @ bmc_div @ sw_div;
              baseline_cycles = None;
            }
          else
            let per_strategy =
              List.map
                (fun s ->
                  ( s,
                    check_strategy ~options ~sw ~golden_drained ~proved ~live
                      ~faults ~prog s ))
                default_strategies
            in
            let baseline_cycles =
              List.fold_left
                (fun acc ((sname, _), (_, cycles)) ->
                  if sname = "baseline" then cycles else acc)
                None per_strategy
            in
            let ratio_div =
              match baseline_cycles with
              | None -> []
              | Some base ->
                  List.concat_map
                    (fun ((sname, _), (_, cycles)) ->
                      match cycles with
                      | Some c when c > (ratio_bound * base) + ratio_slack ->
                          [ { dclass = Cycle_blowup; strategy = sname;
                              detail =
                                Printf.sprintf
                                  "%d cycles vs %d baseline (bound %dx+%d)" c base
                                  ratio_bound ratio_slack } ]
                      | _ -> [])
                    per_strategy
            in
            {
              source;
              divergences =
                analysis_div @ live_div @ bmc_div @ sw_proved_div @ sw_live_div
                @ List.concat_map (fun (_, (divs, _)) -> divs) per_strategy
                @ ratio_div;
              baseline_cycles;
            })
