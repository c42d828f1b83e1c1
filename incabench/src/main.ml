(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --smoke                 # every workload, tiny sizes
     main.exe --workload W --bless    # rewrite W's committed reference

   An untraced run ([--trace 0]) repeats, until [--seconds] have gone
   by, a set-up (the first pass waits for ten), a timed pass and a few
   machine-speed probes (probe.ml).  [wall_s], [cpu_s] and [setup_s]
   are the medians over the run, scaled to the probe's reference speed;
   [peak_rss_mb] is the process's peak.  A traced run ([--trace 1])
   traces one set-up, spends half the time on untraced passes and half
   on traced ones, and reports the per-layer metrics BENCHMARK.json
   lists, self times and the tracing overhead.
   The last line of standard output is the JSON result.  Exit code 1
   means an output differed from its reference; 2 means the run could
   not start. *)

let workloads = [ W_paper.workload; W_campaign.workload; W_torture.workload; W_prove.workload ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  bless : bool;
}

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("incabench: " ^ m); exit 2) fmt

let parse_args argv =
  let int_arg flag s =
    match int_of_string_opt s with Some n -> n | None -> die "%s expects an integer, got %S" flag s
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = w } rest
    | "--seed" :: s :: rest -> go { o with seed = int_arg "--seed" s } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_int (int_arg "--seconds" s) } rest
    | "--trace" :: s :: rest -> go { o with trace = int_arg "--trace" s <> 0 } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--bless" :: rest -> go { o with bless = true } rest
    | a :: _ -> die "unknown argument %s" a
  in
  go
    { workload = ""; seed = 1; seconds = 10.0; trace = false; smoke = false; bless = false }
    argv

(* --- run hygiene -------------------------------------------------------------- *)

let nproc = Domain.recommended_domain_count ()

(* The commit a checkout was made from, read from .git without running
   git; a checkout without .git (an exported tree) reports "unknown". *)
let commit () =
  let git = ".git" in
  let read p = try Some (String.trim (Wl.read_file (Filename.concat git p))) with _ -> None in
  match read "HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read r with
      | Some c -> c
      | None -> (
          match read "packed-refs" with
          | Some packed ->
              List.fold_left
                (fun acc line ->
                  match String.split_on_char ' ' line with
                  | [ c; r' ] when r' = r -> c
                  | _ -> acc)
                "unknown" (String.split_on_char '\n' packed)
          | None -> "unknown"))
  | Some c -> c
  | None -> "unknown"

(* Peak resident memory of this process (VmHWM).  /proc files have no
   length, so the status file is read line by line. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Some (Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
    | _ -> find ()
    | exception End_of_file -> None
  in
  let mb = find () in
  close_in ic;
  match mb with Some mb -> mb | None -> die "no VmHWM in /proc/self/status"

(* (name, unit) of every per-layer metric BENCHMARK.json lists: a traced
   run reports exactly these. *)
let per_layer () =
  let path = "BENCHMARK.json" in
  let metrics =
    match Json.parse (Wl.read_file path) with
    | Ok j -> Option.bind (Json.member "per_layer" j) Json.get_list
    | Error _ | (exception Sys_error _) -> None
  in
  match metrics with
  | None -> die "no per_layer list in %s" path
  | Some ms ->
      List.map
        (fun m ->
          let field k = Option.value ~default:"" (Option.bind (Json.member k m) Json.get_str) in
          (field "name", field "unit"))
        ms

(* --- passes ----------------------------------------------------------------------- *)

type timed = {
  id : int;  (** pass number, as recorded on its spans *)
  wall : float;
  cpu : float;
  minor_mb : float;
  majors : int;
  pass : Wl.pass;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let next_pass = ref 0

let run_pass ~traced run =
  incr next_pass;
  Span.pass := !next_pass;
  Span.enabled := traced;
  (* every pass starts from a collected heap, as in a fresh process *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () and c0 = cpu_now () and t0 = Span.now () in
  let check = run ~traced in
  let t1 = Span.now () and c1 = cpu_now () and g1 = Gc.quick_stat () in
  Span.enabled := false;
  let pass = check () in
  {
    id = !next_pass;
    wall = t1 -. t0;
    cpu = c1 -. c0;
    minor_mb = (g1.Gc.minor_words -. g0.Gc.minor_words) *. float_of_int (Sys.word_size / 8) /. 1e6;
    majors = g1.Gc.major_collections - g0.Gc.major_collections;
    pass;
  }

(* Passes until [deadline], at least one; [next ()] gives the closure
   each pass runs, and [after] sees each pass. *)
let passes_until ?(after = ignore) ~traced ~deadline next =
  let rec go acc =
    let t = run_pass ~traced (next ()) in
    after t;
    if Span.now () >= deadline then List.rev (t :: acc) else go (t :: acc)
  in
  go []

let median_of f ts = Span.median (List.map f ts)
let min_of f ts = List.fold_left (fun a t -> Float.min a (f t)) infinity ts
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* Every pass must give the same outputs and counters. *)
let deterministic ts =
  match ts with
  | [] -> true
  | t :: rest ->
      List.for_all
        (fun u ->
          u.pass.Wl.fingerprint = t.pass.Wl.fingerprint && u.pass.Wl.counters = t.pass.Wl.counters)
        rest

(* --- output ----------------------------------------------------------------------- *)

let json_num x = if Float.is_integer x && Float.abs x < 1e15 then Json.int (int_of_float x) else Json.Float x

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.int attempted);
         ("failed", Json.int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, Json.Obj [ ("value", json_num v); ("unit", Json.Str unit) ]))
                metrics) );
       ])

let counters_json cs = Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) cs))

let write_trace o =
  let dir = ".incabench" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s.json" o.workload) in
  let oc = open_out_bin path in
  output_string oc (Json.to_string (Span.chrome_json ()));
  close_out oc;
  path

(* --- one workload run ----------------------------------------------------------- *)

(* One worker domain.  Two domains on two shared vCPUs wait for each
   other at every stop-the-world minor collection whenever a tenant
   holds one vCPU, which spread the times of two-domain runs by 40 %
   between runs; one domain also does the same kind of work as the
   single-domain speed probe. *)
let ctx o = { Wl.jobs = 1; seed = o.seed; smoke = o.smoke }

(* [n] set-ups, keeping the last; returns the closure and every
   set-up's duration.  Each starts from a collected heap, as in a fresh
   process. *)
let set_up ctx (w : Wl.t) n =
  let rec go acc k =
    Gc.full_major ();
    let t0 = Span.now () in
    let run = w.Wl.setup ctx in
    let acc = (Span.now () -. t0) :: acc in
    if k <= 1 then (run, acc) else go acc (k - 1)
  in
  go [] n

(* when the process began running this module *)
let started = Span.now ()

let print_stamp o ~mode =
  Printf.printf "incabench: workload=%s seed=%d mode=%s nproc=%d jobs=%d ocaml=%s commit=%s\n"
    o.workload o.seed mode nproc (ctx o).Wl.jobs Sys.ocaml_version (commit ())

let totals ts =
  ( List.fold_left (fun a t -> a + t.pass.Wl.attempted) 0 ts,
    List.fold_left (fun a t -> a + List.length t.pass.Wl.failures) 0 ts )

(* the first few failures of a run, one line each, on stderr *)
let print_failures ts =
  List.iteri
    (fun i f -> if i < 10 then prerr_endline ("FAIL: " ^ f))
    (List.concat_map (fun t -> t.pass.Wl.failures) ts)

let untraced o w =
  print_stamp o ~mode:"untraced";
  let ctx = ctx o in
  (* A set-up before every pass, so that set-up times sample the whole
     run as the passes do, and ten before the first.  Probe groups: one
     before the first set-up, then one after each pass, each from a
     collected heap, the first 0.2 s long and the others a twentieth of
     the pass's time.  A pass is scaled by the groups just before and
     just after it, a set-up by the group just before it, so that a run
     whose machine changes speed between passes still reads steadily;
     the metrics are the medians of the scaled times. *)
  let groups = ref [ Probe.sample 0.2 ] in
  let setups = ref [] and first = ref None in
  let next () =
    let run, times = set_up ctx w (if !setups = [] && not o.smoke then 10 else 1) in
    let scale = Probe.scale (List.hd !groups) in
    setups := List.map (fun d -> (d, d *. scale)) times @ !setups;
    if !first = None then first := Some (Span.now () -. started);
    run
  in
  let after t =
    Gc.full_major ();
    groups := Probe.sample (t.wall /. 20.0) :: !groups
  in
  let ts = passes_until ~after ~traced:false ~deadline:(Span.now () +. o.seconds) next in
  let groups = Array.of_list (List.rev !groups) in
  let scaled f = Span.median (List.mapi (fun i t -> f t *. Probe.scale (groups.(i) @ groups.(i + 1))) ts) in
  let setup_raw = Span.median (List.map fst !setups) and setup_s = Span.median (List.map snd !setups) in
  let setups = List.length !setups in
  let attempted, failed = totals ts in
  let steady = deterministic ts in
  let wall_raw = median_of (fun t -> t.wall) ts and cpu_raw = median_of (fun t -> t.cpu) ts in
  let wall = scaled (fun t -> t.wall) and cpu = scaled (fun t -> t.cpu) in
  let rss = peak_rss_mb () in
  let probes = List.concat (Array.to_list groups) in
  Printf.printf "probe %.6f s (median of %d in %d groups; reference %.6f s)\n" (Span.median probes)
    (List.length probes) (Array.length groups) Probe.reference;
  Printf.printf "wall_s %.6f s (median of %d scaled passes; measured median %.6f s, fastest %.6f s, p90 %.6f s)\n"
    wall (List.length ts) wall_raw (min_of (fun t -> t.wall) ts)
    (Span.quantile 0.9 (List.map (fun t -> t.wall) ts));
  Printf.printf "cpu_s %.6f s (median user+system per pass on %d domain, scaled; measured %.6f s)\n"
    cpu ctx.Wl.jobs cpu_raw;
  Printf.printf
    "setup_s %.6f s (median of %d set-ups, scaled; measured %.6f s; the first pass began %.6f s after start)\n"
    setup_s setups setup_raw (Option.get !first);
  Printf.printf "peak_rss_mb %.3f MB (VmHWM of the run)\n" rss;
  Printf.printf "error_rate %.6f ratio (%d of %d items failed)\n"
    (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  Printf.printf "counters %s\n" (counters_json (List.hd ts).pass.Wl.counters);
  print_failures ts;
  if not steady then prerr_endline "FAIL: passes of this run disagree on outputs or counters";
  let correct = failed = 0 && steady in
  print_endline
    (result_line ~correct ~attempted ~failed:(if steady then failed else max 1 failed)
       [
         ("wall_s", "s", wall); ("cpu_s", "s", cpu); ("setup_s", "s", setup_s);
         ("peak_rss_mb", "MB", rss);
       ]);
  correct

let traced o w =
  print_stamp o ~mode:"traced";
  (* the set-up is traced as pass 0 *)
  Span.recorded := [];
  Span.pass := 0;
  Span.enabled := true;
  let run, _ = set_up (ctx o) w 1 in
  Span.enabled := false;
  let next () = run in
  let start = Span.now () in
  let plain = passes_until ~traced:false ~deadline:(start +. (o.seconds /. 2.0)) next in
  let traced = passes_until ~traced:true ~deadline:(start +. o.seconds) next in
  let attempted, failed = totals (plain @ traced) in
  let reference = (List.hd plain).pass in
  (* faithfulness: each traced decomposition reproduces the untraced
     outputs and counters exactly *)
  let faithful =
    List.for_all
      (fun t ->
        t.pass.Wl.fingerprint = reference.Wl.fingerprint
        && t.pass.Wl.counters = reference.Wl.counters)
      traced
    && deterministic plain
  in
  let correct = failed = 0 && faithful in
  let overhead = min_of (fun t -> t.wall) traced -. min_of (fun t -> t.wall) plain in
  let last = (List.hd (List.rev traced)).pass in
  let value name =
    let layer = List.filter_map (fun t -> List.assoc_opt name t.pass.Wl.layers) traced in
    match name with
    | "gc.minor_mb" -> mean (List.map (fun t -> t.minor_mb) traced)
    | "gc.major_collections" -> mean (List.map (fun t -> float_of_int t.majors) traced)
    | "trace.overhead_s" -> overhead
    | name -> (
        match List.assoc_opt name last.Wl.counters with
        | Some c -> float_of_int c
        | None -> if layer = [] then 0.0 else mean layer)
  in
  let metrics = List.map (fun (name, unit) -> (name, unit, value name)) (per_layer ()) in
  Printf.printf "passes: %d untraced (fastest %.6f s), %d traced (fastest %.6f s); tracing overhead %.6f s\n"
    (List.length plain) (min_of (fun t -> t.wall) plain) (List.length traced)
    (min_of (fun t -> t.wall) traced) overhead;
  Printf.printf "counters %s\n" (counters_json last.Wl.counters);
  print_endline "per-layer (mean per traced pass):";
  List.iter (fun (n, u, v) -> if v <> 0.0 then Printf.printf "  %-28s %14.6f %s\n" n v u) metrics;
  print_endline "self time by span (all traced passes):";
  Printf.printf "  %-22s %8s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, n, tot, self) -> Printf.printf "  %-22s %8d %12.6f %12.6f\n" name n tot self)
    (Span.self_times (0 :: List.map (fun t -> t.id) traced));
  if not o.smoke then Printf.printf "trace written to %s\n" (write_trace o);
  print_failures (plain @ traced);
  if not faithful then
    prerr_endline "FAIL: the traced decomposition does not reproduce the untraced run; no per-layer numbers";
  print_endline
    (result_line ~correct ~attempted ~failed:(if faithful then failed else max 1 failed)
       (if faithful then metrics else []));
  correct

(* --- entry points ------------------------------------------------------------------ *)

let find_workload name =
  match List.find_opt (fun (w : Wl.t) -> w.Wl.name = name) workloads with
  | Some w -> w
  | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun (w : Wl.t) -> w.Wl.name) workloads))

let check_root () =
  let dir d = Sys.file_exists d && Sys.is_directory d in
  if not (dir "examples") then die "examples/ not found: run from the project root";
  if not (dir "incabench/ref") then die "incabench/ref/ not found: run from the project root"

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let o = parse_args argv in
  check_root ();
  (* hygiene: a user's disk cache would make passes warm *)
  Exec.Cache.set_dir None;
  if o.smoke then begin
    let ok =
      List.for_all
        (fun (w : Wl.t) ->
          let o = { o with workload = w.Wl.name; seconds = 0.0 } in
          untraced o w && traced o w)
        workloads
    in
    exit (if ok then 0 else 1)
  end;
  let w = find_workload o.workload in
  if o.bless then begin
    let run, _ = set_up (ctx o) w 1 in
    let t = run_pass ~traced:false run in
    match w.Wl.reference with
    | Some file ->
        Ref.bless (Wl.ref_path file) t.pass.Wl.fingerprint;
        Printf.printf "wrote %s\n" file
    | None -> die "workload %s has no committed reference" w.Wl.name
  end
  else exit (if (if o.trace then traced o w else untraced o w) then 0 else 1)
