(* What every workload gives the measurement loop in main.ml. *)

type ctx = {
  jobs : int;  (** worker domains, at most nproc *)
  seed : int;  (** permutes the order of independent items only *)
  smoke : bool;  (** tiny sizes, same code paths *)
}

type pass = {
  attempted : int;  (** items: designs, mutant runs, programs, assertions *)
  failures : string list;
      (** one line per failed item: it raised, was retried or differs
          from its reference *)
  counters : (string * int) list;
      (** deterministic work counters: identical on every pass and run *)
  layers : (string * float) list;
      (** per-layer metrics of a traced pass ([[]] when untraced) *)
  fingerprint : string;
      (** the outputs a traced pass must reproduce exactly *)
}

type t = {
  name : string;
  reference : string option;
      (** file under incabench/ref/ holding the pass fingerprint, when
          the outputs are frozen ([--bless] rewrites it) *)
  setup : ctx -> traced:bool -> unit -> pass;
      (** elaborate sources, build stimuli and load references.  The
          returned closure runs one timed pass; the closure it returns
          checks that pass's outputs, untimed. *)
}

let ref_path file = Filename.concat "incabench/ref" file

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(** Deterministic Fisher-Yates shuffle driven by the run seed. *)
let shuffle ctx xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| ctx.seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** [Exec.Pool.map] on the run's domains.  Traced, the call is an
    [exec.pool] span and every job a span named [name], labelled by
    [label]; returns the outcomes and the (busy, idle) domain-seconds
    of the call: idle = domains x wall - busy. *)
let pool_map ctx ~name ~label f items =
  if not !Span.enabled then (Exec.Pool.map ~jobs:ctx.jobs f items, (0.0, 0.0))
  else begin
    let busy = Atomic.make 0 in
    let domains = min ctx.jobs (max 1 (List.length items)) in
    let t0 = Span.now () in
    let outcomes =
      Span.with_ "exec.pool" (fun () ->
          let parent = Span.current () in
          Exec.Pool.map ~jobs:ctx.jobs
            (fun x ->
              Span.under parent (fun () ->
                  let s = Span.now () in
                  Fun.protect
                    (fun () -> Span.with_ ~label:(label x) name (fun () -> f x))
                    ~finally:(fun () ->
                      let ns = int_of_float ((Span.now () -. s) *. 1e9) in
                      ignore (Atomic.fetch_and_add busy ns))))
            items)
    in
    let wall = Span.now () -. t0 in
    let busy = float_of_int (Atomic.get busy) *. 1e-9 in
    (outcomes, (busy, (float_of_int domains *. wall) -. busy))
  end

(** Pool accounting of a traced pass, summed over its pool calls. *)
let pool_layers calls =
  let busy = List.fold_left (fun a (b, _) -> a +. b) 0.0 calls in
  let idle = List.fold_left (fun a (_, i) -> a +. i) 0.0 calls in
  [
    ("exec.pool_busy_s", busy);
    ("exec.pool_idle_s", idle);
    ("exec.pool_efficiency", if busy +. idle > 0.0 then busy /. (busy +. idle) else 0.0);
  ]
