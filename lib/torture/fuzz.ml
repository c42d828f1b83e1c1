(** Fuzzing campaign runner — see {!Fuzz} interface. *)

type finding = {
  f_index : int;
  f_seed : int64;
  f_classes : string list;
  f_details : (string * string) list;
  f_shrunk : Front.Ast.program;
  f_stats : Shrink.stats;
  f_corpus : string option;
}

type report = {
  r_seed : int64;
  r_count : int;
  r_fuel : int;
  r_max_cycles : int;
  r_watchdog : int;
  r_findings : finding list;
  r_classes : (string * int) list;
  r_baseline_cycles : int;
}

let default_count = 200
let default_fuel = 8

let empty_program = { Front.Ast.streams = []; externs = []; procs = [] }

let class_set divergences =
  List.sort_uniq compare (List.map Oracle.class_key divergences)

(* One checked program, as computed inside a worker domain.  Carries the
   as-checked source (not the AST) across the domain boundary; the
   shrinker re-parses it on the main domain. *)
type checked =
  | Agree of int  (** finished-baseline cycle count (0 when unavailable) *)
  | Diverged of {
      d_classes : string list;
      d_details : (string * string) list;
      d_source : string;
    }

let check_one ~run_seed ~fuel ~max_cycles ~watchdog ~faults ~bmc_depth index =
  let seed = Gen.program_seed ~run_seed ~index in
  let prog = Gen.generate ~seed ~fuel in
  let o = Oracle.check ~faults ~max_cycles ~watchdog ?bmc_depth prog in
  match o.Oracle.divergences with
  | [] -> Agree (Option.value ~default:0 o.Oracle.baseline_cycles)
  | ds ->
      Diverged
        {
          d_classes = class_set ds;
          d_details =
            List.map (fun d -> (Oracle.class_key d, d.Oracle.detail)) ds;
          d_source = o.Oracle.source;
        }

(* Corpus file stem for a machine-found reproducer: the program seed,
   sign folded into an [m] so the name is filesystem-friendly. *)
let corpus_name seed =
  let s = Printf.sprintf "%Ld" seed in
  if String.length s > 0 && s.[0] = '-' then
    "auto-m" ^ String.sub s 1 (String.length s - 1)
  else "auto-" ^ s

let run ?jobs ?(seed = 42L) ?(count = default_count) ?(fuel = default_fuel)
    ?(max_cycles = Oracle.default_max_cycles)
    ?(watchdog = Oracle.default_watchdog) ?(faults = []) ?bmc_depth
    ?shrink_attempts ?corpus_dir () =
  let indices = List.init count (fun i -> i) in
  let outcomes =
    Exec.Pool.map ?jobs
      (check_one ~run_seed:seed ~fuel ~max_cycles ~watchdog ~faults ~bmc_depth)
      indices
  in
  let saved_signatures = ref [] in
  let findings =
    List.concat
      (List.mapi
         (fun index (o : checked Exec.Pool.outcome) ->
           let diverged =
             match o.Exec.Pool.value with
             | Ok (Agree _) -> None
             | Ok (Diverged d) -> Some (d.d_classes, d.d_details, d.d_source)
             | Error msg ->
                 (* the job itself crashed past the pool's retry — a
                    harness bug, reported as its own class *)
                 Some ([ "harness-crash" ], [ ("harness-crash", msg) ], "")
           in
           match diverged with
           | None -> []
           | Some (classes, details, source) ->
               let prog =
                 match Front.Typecheck.parse_and_check source with
                 | p -> p
                 | exception _ -> empty_program
               in
               let shrunk, stats =
                 if prog == empty_program then
                   ( prog,
                     { Shrink.attempts = 0; accepted = 0; orig_lines = 0;
                       min_lines = 0 } )
                 else
                   let keep cand =
                     let o =
                       Oracle.check ~faults ~max_cycles ~watchdog
                         ?bmc_depth cand
                     in
                     class_set o.Oracle.divergences = classes
                   in
                   Shrink.shrink ?max_attempts:shrink_attempts ~keep prog
               in
               let f_seed = Gen.program_seed ~run_seed:seed ~index in
               let f_corpus =
                 match corpus_dir with
                 | Some dir
                   when prog != empty_program
                        && not (List.mem classes !saved_signatures) ->
                     saved_signatures := classes :: !saved_signatures;
                     let entry =
                       {
                         Corpus.name = corpus_name f_seed;
                         classes;
                         seed = Some f_seed;
                         fuel = Some fuel;
                         source = Front.Pretty.program_to_string shrunk;
                       }
                     in
                     Some (Corpus.save ~dir entry)
                 | _ -> None
               in
               [
                 {
                   f_index = index;
                   f_seed;
                   f_classes = classes;
                   f_details = details;
                   f_shrunk = shrunk;
                   f_stats = stats;
                   f_corpus;
                 };
               ])
         outcomes)
  in
  let baseline_cycles =
    List.fold_left
      (fun acc (o : checked Exec.Pool.outcome) ->
        match o.Exec.Pool.value with Ok (Agree c) -> acc + c | _ -> acc)
      0 outcomes
  in
  let classes =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun f ->
        List.iter
          (fun k ->
            Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
          f.f_classes)
      findings;
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare
  in
  {
    r_seed = seed;
    r_count = count;
    r_fuel = fuel;
    r_max_cycles = max_cycles;
    r_watchdog = watchdog;
    r_findings = findings;
    r_classes = classes;
    r_baseline_cycles = baseline_cycles;
  }

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "torture: %d programs (seed %Ld, fuel %d), %d divergent\n" r.r_count r.r_seed
    r.r_fuel (List.length r.r_findings);
  List.iter (fun (k, n) -> Printf.bprintf b "  %-28s %d\n" k n) r.r_classes;
  List.iter
    (fun f ->
      Printf.bprintf b "  #%d seed=%Ld [%s] shrunk %d -> %d lines%s\n" f.f_index
        f.f_seed
        (String.concat "," f.f_classes)
        f.f_stats.Shrink.orig_lines f.f_stats.Shrink.min_lines
        (match f.f_corpus with
        | Some p -> "  -> " ^ Filename.basename p
        | None -> "");
      List.iter
        (fun (k, d) -> Printf.bprintf b "      %s: %s\n" k d)
        f.f_details)
    r.r_findings;
  if r.r_findings = [] then
    Printf.bprintf b "  all executions agree (%d baseline cycles simulated)\n"
      r.r_baseline_cycles;
  Buffer.contents b

let json_of r : Json.t =
  let finding f =
    Json.Obj
      [
        ("index", Json.int f.f_index);
        ("seed", Json.i64 f.f_seed);
        ("classes", Json.list Json.str f.f_classes);
        ( "details",
          Json.list
            (fun (k, d) -> Json.Obj [ ("class", Json.Str k); ("detail", Json.Str d) ])
            f.f_details );
        ("orig_lines", Json.int f.f_stats.Shrink.orig_lines);
        ("min_lines", Json.int f.f_stats.Shrink.min_lines);
        ("shrink_attempts", Json.int f.f_stats.Shrink.attempts);
        ("corpus", Json.opt (fun p -> Json.Str (Filename.basename p)) f.f_corpus);
        ("source", Json.Str (Front.Pretty.program_to_string f.f_shrunk));
      ]
  in
  Json.Obj
    [
      ("seed", Json.i64 r.r_seed);
      ("count", Json.int r.r_count);
      ("fuel", Json.int r.r_fuel);
      ("max_cycles", Json.int r.r_max_cycles);
      ("watchdog", Json.int r.r_watchdog);
      ("divergent", Json.int (List.length r.r_findings));
      ("baseline_cycles", Json.int r.r_baseline_cycles);
      ("classes", Json.Obj (List.map (fun (k, n) -> (k, Json.int n)) r.r_classes));
      ("findings", Json.list finding r.r_findings);
    ]

let workloads r =
  List.map
    (fun f ->
      {
        Campaign.wname = Printf.sprintf "torture-%d" f.f_index;
        program = f.f_shrunk;
        options = Mine.Trace.auto_options f.f_shrunk;
      })
    r.r_findings
