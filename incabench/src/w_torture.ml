(* Workload [torture]: the differential fuzzing campaign in two legs,
   both on run seed 42.

   - clean: programs 0..899 checked on the worker domains.  Index 830
     is the first real divergence (a known compiler defect, see
     README.md); the shrinker reduces it.
   - fault: program 0 with a dropped first write to p0/chan1 injected
     into every circuit compile; the oracle must see a divergence and
     the shrinker minimises it.

   Set-up builds the fault leg's stimulus: it generates program 0,
   elaborates it as the oracle does (print, parse, typecheck, lower) and
   checks that the injected fault is one of its fault sites.

   One item is one checked program.  It fails when its job crashed, or
   when a shrunk reproducer no longer shows its classes under
   [Oracle.check].  The finding list is not frozen: a compiler fix that
   removes a real finding is not an error.

   Traced, each leg is driven through its public pieces:
   [program_seed]/[generate] -> [Oracle.check] -> [Shrink.shrink] with
   the class-set [keep] predicate of [Fuzz.run], every [keep] call
   timed, and [Driver.software_sim] replayed on every oracle input as
   the interpreter probe. *)

module Fuzz = Torture.Fuzz
module Oracle = Torture.Oracle

let run_seed = 42L

let fault =
  [ Faults.Fault.Drop_stream_write
      { fproc = "p0"; stream = "chan1"; select = Faults.Fault.Nth 0 } ]

type leg = {
  lname : string;
  count : int;
  faults : Faults.Fault.t list;
  shrink_attempts : int option;  (** the shrinker's attempt cap *)
}

(* One finding, as both the untraced and the traced pass see it. *)
type finding = {
  index : int;
  classes : string list;
  shrunk : Front.Ast.program;
  stats : Torture.Shrink.stats;
}

let class_set ds = List.sort_uniq compare (List.map Oracle.class_key ds)

(* --- interpreter probe ---------------------------------------------------- *)

(* The golden software run the oracle makes on [prog], replayed: same
   re-elaboration, testbench and budgets.  Named [interp.fuel] when it
   stopped on its step budget. *)
let interp_probe prog =
  match Front.Typecheck.parse_and_check (Front.Pretty.program_to_string prog) with
  | exception _ -> ()
  | p -> (
      let options =
        { (Mine.Trace.auto_options p) with
          Core.Driver.max_cycles = Oracle.default_max_cycles;
          watchdog = Some Oracle.default_watchdog }
      in
      match Core.Driver.compile ~strategy:Core.Driver.baseline p with
      | exception _ -> ()
      | c ->
          let t0 = Span.now () in
          let r = try Some (Core.Driver.software_sim ~options c) with _ -> None in
          let t1 = Span.now () in
          let name =
            match r with
            | Some { Interp.outcome = Interp.Fuel_exhausted; _ } -> "interp.fuel"
            | _ -> "interp"
          in
          Span.record name t0 t1)

(* --- the traced decomposition of Fuzz.run ------------------------------- *)

(* A divergent program shrunk as [Fuzz.run] does it: re-elaborate the
   checked source (an unparsable one stays unshrunk) and keep candidates
   with the same class set. *)
let shrink_traced leg index (o : Oracle.outcome) =
  let classes = class_set o.Oracle.divergences in
  match Front.Typecheck.parse_and_check o.Oracle.source with
  | exception _ ->
      let stats = { Torture.Shrink.attempts = 0; accepted = 0; orig_lines = 0; min_lines = 0 } in
      { index; classes; shrunk = { Front.Ast.streams = []; externs = []; procs = [] }; stats }
  | prog ->
      let keep cand =
        let t0 = Span.now () in
        let o = Oracle.check ~faults:leg.faults cand in
        Span.record "torture.keep" t0 (Span.now ());
        interp_probe cand;
        class_set o.Oracle.divergences = classes
      in
      let shrunk, stats =
        Span.with_ ~label:(string_of_int index) "torture.shrink" (fun () ->
            Torture.Shrink.shrink ?max_attempts:leg.shrink_attempts ~keep prog)
      in
      { index; classes; shrunk; stats }

let traced_leg (ctx : Wl.ctx) leg =
  let check index =
    let seed = Torture.Gen.program_seed ~run_seed ~index in
    let prog =
      Span.with_ "torture.gen" (fun () ->
          Torture.Gen.generate ~seed ~fuel:Fuzz.default_fuel)
    in
    let o = Span.with_ "torture.oracle" (fun () -> Oracle.check ~faults:leg.faults prog) in
    interp_probe prog;
    o
  in
  let outcomes, pool =
    Wl.pool_map ctx ~name:"torture.program" ~label:string_of_int check
      (List.init leg.count Fun.id)
  in
  let cycles = ref 0 and crashed = ref 0 in
  let findings =
    List.concat
      (List.mapi
         (fun index (o : Oracle.outcome Exec.Pool.outcome) ->
           match o.Exec.Pool.value with
           | Error _ ->
               incr crashed;
               []
           | Ok o when o.Oracle.divergences = [] ->
               cycles := !cycles + Option.value ~default:0 o.Oracle.baseline_cycles;
               []
           | Ok o -> [ shrink_traced leg index o ])
         outcomes)
  in
  (findings, !cycles, !crashed, pool)

let untraced_leg (ctx : Wl.ctx) leg =
  let r =
    Fuzz.run ~jobs:ctx.Wl.jobs ~seed:run_seed ~count:leg.count ~faults:leg.faults
      ?shrink_attempts:leg.shrink_attempts ()
  in
  let crashed =
    List.length
      (List.filter (fun f -> List.mem "harness-crash" f.Fuzz.f_classes) r.Fuzz.r_findings)
  in
  let findings =
    List.filter_map
      (fun (f : Fuzz.finding) ->
        if List.mem "harness-crash" f.Fuzz.f_classes then None
        else
          Some
            { index = f.Fuzz.f_index; classes = f.Fuzz.f_classes; shrunk = f.Fuzz.f_shrunk;
              stats = f.Fuzz.f_stats })
      r.Fuzz.r_findings
  in
  (findings, r.Fuzz.r_baseline_cycles, crashed, (0.0, 0.0))

let render_finding leg f =
  Printf.sprintf "%s #%d [%s] attempts=%d accepted=%d lines=%d->%d\n%s" leg.lname f.index
    (String.concat "," f.classes) f.stats.Torture.Shrink.attempts f.stats.Torture.Shrink.accepted
    f.stats.Torture.Shrink.orig_lines f.stats.Torture.Shrink.min_lines
    (Front.Pretty.program_to_string f.shrunk)

(* A reproducer is valid when it still shows its classes. *)
let still_diverges leg f =
  match Oracle.check ~faults:leg.faults f.shrunk with
  | o -> class_set o.Oracle.divergences = f.classes
  | exception _ -> false

let layers results =
  let p = !Span.pass in
  let keeps = List.map (fun s -> Span.duration s *. 1e3) (Span.of_pass p "torture.keep") in
  let findings = List.concat_map (fun (_, (fs, _, _, _)) -> fs) results in
  let attempts = List.fold_left (fun a f -> a + f.stats.Torture.Shrink.attempts) 0 findings in
  let accepted = List.fold_left (fun a f -> a + f.stats.Torture.Shrink.accepted) 0 findings in
  let fuel = Span.total p "interp.fuel" in
  let shrinks = List.map (fun sp -> sp.Span.id) (Span.of_pass p "torture.shrink") in
  let probe_in_shrink =
    List.fold_left
      (fun acc sp -> if List.mem sp.Span.parent shrinks then acc +. Span.duration sp else acc)
      0.0
      (Span.of_pass p "interp" @ Span.of_pass p "interp.fuel")
  in
  [
    ("torture.gen_s", Span.total p "torture.gen");
    ("torture.oracle_s", Span.total p "torture.oracle");
    (* the interpreter probe runs inside [keep]: not the shrinker's time *)
    ("torture.shrink_s", Span.total p "torture.shrink" -. probe_in_shrink);
    ( "torture.shrink_accept_ratio",
      if attempts > 0 then float_of_int accepted /. float_of_int attempts else 0.0 );
    ("torture.keep_p50_ms", Span.quantile 0.5 keeps);
    ("torture.keep_p90_ms", Span.quantile 0.9 keeps);
    ("interp.s", Span.total p "interp" +. fuel);
    ("interp.fuel_s", fuel);
    ("interp.fuel_exhausted", float_of_int (List.length (Span.of_pass p "interp.fuel")));
  ]
  @ Wl.pool_layers (List.map (fun (_, (_, _, _, pool)) -> pool) results)

(* The fault leg's program, elaborated; true when [fault] names one of
   its fault sites. *)
let fault_applies () =
  let prog =
    Torture.Gen.generate ~seed:(Torture.Gen.program_seed ~run_seed ~index:0) ~fuel:Fuzz.default_fuel
  in
  let prog = Front.Typecheck.parse_and_check (Front.Pretty.program_to_string prog) in
  let f = Core.Driver.front ~strategy:Core.Driver.baseline prog in
  List.for_all (fun x -> List.mem x (Faults.Fault.sites f.Core.Driver.f_ir)) fault

(* The fault leg's shrinker stops after this many candidates, before
   the 27th: that one, and four of the 30 after it, run the interpreter
   until its fuel (10 million steps, about 2 s) is exhausted.  All five
   made a pass 13 s long; even the first alone left a run's times
   spreading by 10 % between runs (README.md, "Steadiness"). *)
let fault_shrink_attempts = 26

let setup (ctx : Wl.ctx) =
  let applies = fault_applies () in
  (* Always clean then fault, whatever the seed: with the full
     fault-leg shrink, the heap the clean leg left behind moved the
     fault leg's memory peak by 15 % (370 vs 420 MB over ten runs with
     shuffled legs). *)
  (* smoke: the same pieces, with the shrinkers cut short *)
  let cap n = if ctx.Wl.smoke then Some 6 else n in
  let legs =
    [
      { lname = "clean"; count = (if ctx.Wl.smoke then 12 else 900); faults = [];
        shrink_attempts = cap None };
      { lname = "fault"; count = 1; faults = fault; shrink_attempts = cap (Some fault_shrink_attempts) };
    ]
  in
  fun ~traced ->
    let results =
      List.map
        (fun leg ->
          (leg, (if traced then traced_leg else untraced_leg) ctx leg))
        legs
    in
    fun () ->
      let failures =
        List.concat_map
          (fun (leg, (findings, _, crashed, _)) ->
            List.init crashed (fun _ -> leg.lname ^ ": a program's job crashed")
            @ (if leg.faults <> [] && not applies then
                 [ leg.lname ^ ": the injected fault is not a fault site of program 0" ]
               else [])
            @ (if leg.faults <> [] && not (List.exists (fun f -> f.index = 0) findings) then
                 [ leg.lname ^ ": the injected fault produced no divergence" ]
               else [])
            @ List.filter_map
                (fun f ->
                  if still_diverges leg f then None
                  else Some (Printf.sprintf "%s #%d: the reproducer lost its classes" leg.lname f.index))
                findings)
          results
      in
      let sum f = List.fold_left (fun a (leg, r) -> a + f leg r) 0 results in
      {
        Wl.attempted = sum (fun leg _ -> leg.count);
        failures;
        counters =
          [
            ("sim.cycles", sum (fun _ (_, c, _, _) -> c));
            ("torture.programs", sum (fun leg _ -> leg.count));
            ("torture.findings", sum (fun leg (fs, _, _, _) -> if leg.faults = [] then List.length fs else 0));
            ( "torture.shrink_attempts",
              sum (fun _ (fs, _, _, _) ->
                  List.fold_left (fun a f -> a + f.stats.Torture.Shrink.attempts) 0 fs) );
          ];
        layers = (if traced then layers results else []);
        fingerprint =
          String.concat "\n"
            (List.sort compare
               (List.concat_map
                  (fun (leg, (fs, c, _, _)) ->
                    Printf.sprintf "%s cycles=%d" leg.lname c :: List.map (render_finding leg) fs)
                  results));
      }

let workload = { Wl.name = "torture"; reference = None; setup }
