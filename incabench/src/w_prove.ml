(* Workload [prove]: BMC to depth 8 plus 4-induction over every
   assertion of four example sources, one assertion per job of a single
   pool call (the [bench prove] sweep makes one pool call per file).
   Set-up reads the sources and elaborates them for BMC (parse,
   typecheck, [Verify.front_of], the abstract interpretation).  One item is one assertion; its
   verdict JSON, solver counters included, must equal the committed
   reference.

   Traced, two probes replay each assertion's solver work on the same
   inputs: the depth-8 frame construction (model unrolling plus CNF
   encoding of each cycle's fire literal, no search), and the
   induction steps [check_assertion] ran for it. *)

module Verify = Core.Verify
module Verdict = Analysis.Verdict

let depth = 8
let induction = 4
let conflict_limit = 200_000
let files smoke = if smoke then [ "prove_demo.c" ] else [ "mine_demo.c"; "prove_demo.c"; "dct.c"; "fir.c" ]

let build_probe cfg id =
  Span.with_ "bmc.build" (fun () ->
      try
        let model = Bmc.Model.create cfg in
        let cnf = Bmc.Cnf.create model.Bmc.Model.g (Bmc.Sat.create ()) in
        for c = 0 to depth - 1 do
          ignore (Bmc.Model.step model);
          ignore (Bmc.Cnf.lit cnf (Bmc.Model.fire_at model c id))
        done
      with Bmc.Model.Unsupported _ -> ())

(* The induction loop of [Bmc.Prove.check_assertion], replayed; the
   outcome must agree with the verdict the sweep reported. *)
let induction_probe cfg id (r : Verdict.presult) =
  match r.Verdict.pr_class with
  | Verdict.Bproved _ | Verdict.Bbounded _ ->
      let rec go k =
        if k > induction || k > depth then Verdict.Bbounded depth
        else
          match fst (Bmc.Prove.induction_step cfg ~id ~k ~conflict_limit) with
          | `Inductive -> Verdict.Bproved k
          | `Cti -> go (k + 1)
          | `Undecided -> Verdict.Bbounded depth
      in
      Span.with_ "bmc.induction" (fun () -> go 1) = r.Verdict.pr_class
  | _ -> true

(* One parsed file elaborated for BMC: the BMC front, and the abstract
   interpretation [check_target] cross-references. *)
let elaborate (name, prog) =
  let f = Span.with_ "core.front" (fun () -> Verify.front_of prog) in
  (name, f, Span.with_ "analysis.absint" (fun () -> Analysis.Absint.analyze prog))

let check mismatches (_, f, absint) id =
  let r =
    Span.with_ "bmc.target" (fun () ->
        fst (Verify.check_target ~depth ~induction ~conflict_limit f ~absint id))
  in
  if !Span.enabled then begin
    let cfg = Verify.model_config f in
    build_probe cfg id;
    if not (induction_probe cfg id r) then Atomic.incr mismatches
  end;
  r

(* one (key, verdict JSON) item per assertion *)
let item ((name, _, _), id) (o : Verdict.presult Exec.Pool.outcome) =
  let key = Printf.sprintf "%s#%d" name id in
  match o.Exec.Pool.value with
  | Ok r when o.Exec.Pool.attempts = 1 ->
      let rep = { Verdict.p_depth = depth; p_induction = induction; p_results = [ r ] } in
      (key, Ok (Json.to_string (Verdict.json_of ~file:name rep)))
  | Ok _ -> (key, Error "retried")
  | Error m -> (key, Error m)

let setup (ctx : Wl.ctx) =
  let sources =
    List.map
      (fun f ->
        let text = Wl.read_file (Filename.concat "examples" f) in
        (f, Span.with_ "front.parse" (fun () -> Front.Typecheck.parse_and_check ~file:f text)))
      (files ctx.Wl.smoke)
  in
  (* every assertion of every file is one job of a single pool call *)
  let jobs =
    List.concat_map
      (fun src ->
        let ((_, f, _) as e) = elaborate src in
        List.map (fun id -> (e, id)) (Wl.shuffle ctx (Verify.target_ids f)))
      (Wl.shuffle ctx sources)
  in
  let expected = Ref.load_tsv (Wl.ref_path "prove.tsv") in
  let mismatches = Atomic.make 0 in
  fun ~traced ->
    Atomic.set mismatches 0;
    let outcomes, pool =
      Wl.pool_map ctx ~name:"prove.assertion"
        ~label:(fun ((name, _, _), id) -> Printf.sprintf "%s#%d" name id)
        (fun (e, id) -> check mismatches e id)
        jobs
    in
    fun () ->
      let out = List.map2 item jobs outcomes in
      let vs =
        List.filter_map (fun (o : Verdict.presult Exec.Pool.outcome) -> Result.to_option o.Exec.Pool.value) outcomes
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 vs in
      let conflicts = sum (fun r -> r.Verdict.pr_conflicts) in
      let decisions = sum (fun r -> r.Verdict.pr_decisions) in
      let propagations = sum (fun r -> r.Verdict.pr_propagations) in
      let layers () =
        let p = !Span.pass in
        let target_s = Span.total p "bmc.target" in
        let decided =
          List.length
            (List.filter
               (fun r ->
                 match r.Verdict.pr_class with
                 | Verdict.Bproved _ | Verdict.Bviolated _ -> true
                 | _ -> false)
               vs)
        in
        [
          (* elaboration is set-up, traced as pass 0 *)
          ("front.parse_s", Span.total 0 "front.parse");
          ("core.front_s", Span.total 0 "core.front");
          ("analysis.absint_s", Span.total 0 "analysis.absint");
          ("bmc.target_s", target_s);
          ("bmc.induction_s", Span.total p "bmc.induction");
          ("bmc.build_s", Span.total p "bmc.build");
          ("bmc.props_per_s", if target_s > 0.0 then float_of_int propagations /. target_s else 0.0);
          ( "bmc.decided_ratio",
            if vs = [] then 0.0 else float_of_int decided /. float_of_int (List.length vs) );
        ]
        @ Wl.pool_layers [ pool ]
      in
      {
        Wl.attempted = List.length out;
        failures =
          Ref.mismatches ~complete:(not ctx.Wl.smoke) ~expected out
          @ List.init (Atomic.get mismatches) (fun _ -> "induction probe disagrees with the verdict");
        counters =
          [
            ("bmc.assertions", List.length out);
            ("bmc.conflicts", conflicts);
            ("bmc.decisions", decisions);
            ("bmc.propagations", propagations);
          ];
        layers = (if traced then layers () else []);
        fingerprint = Ref.outcome_lines out;
      }

let workload = { Wl.name = "prove"; reference = Some "prove.tsv"; setup }
