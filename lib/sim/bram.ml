(** Cycle-accurate block RAM.

    The physical array is padded to the next power of two and addresses
    wrap (the address bus has a fixed width): an out-of-range C index
    silently reads or clobbers padding — the hardware behaviour behind
    the paper's Figure 3 bug, where a negative index that the software
    simulator clamps becomes a wild in-circuit access.

    Reads return pre-cycle contents; stores are staged and applied by
    [commit] at the end of the cycle (mixed-port read-during-write on a
    Stratix-II returns old data).  Per-cycle port usage is tracked so
    the engine can verify the scheduler's port guarantees at runtime. *)

type t = {
  name : string;
  logical_length : int;
  data : int64 array;           (* padded to a power of two *)
  mask : int;
  ports : int;
  mutable staged : (int * int64) list;
  mutable accesses_this_cycle : int;
  mutable port_violations : int;
  mutable reads : int;
  mutable writes : int;
  mutable wild_accesses : int;  (* accesses outside the logical length *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(init = []) ~name ~length ~ports () =
  let phys = next_pow2 (max length 1) in
  let data = Array.make phys 0L in
  List.iteri (fun i v -> if i < phys then data.(i) <- v) init;
  {
    name;
    logical_length = length;
    data;
    mask = phys - 1;
    ports;
    staged = [];
    accesses_this_cycle = 0;
    port_violations = 0;
    reads = 0;
    writes = 0;
    wild_accesses = 0;
  }

let wrap_addr t (addr : int64) = Int64.to_int (Int64.logand addr (Int64.of_int t.mask))

let note_access t addr =
  t.accesses_this_cycle <- t.accesses_this_cycle + 1;
  if t.accesses_this_cycle > t.ports then t.port_violations <- t.port_violations + 1;
  if addr >= t.logical_length then t.wild_accesses <- t.wild_accesses + 1

(** Synchronous read: returns the pre-cycle value at the wrapped address. *)
let read t addr =
  let a = wrap_addr t addr in
  note_access t a;
  t.reads <- t.reads + 1;
  t.data.(a)

(** Stage a write; applied at [commit]. *)
let write t addr v =
  let a = wrap_addr t addr in
  note_access t a;
  t.writes <- t.writes + 1;
  t.staged <- (a, v) :: t.staged

(** Mirror write (resource replication, Section 3.2): uses the replica's
    dedicated write port, so it does not count against [ports]. *)
let mirror_write t addr v =
  let a = wrap_addr t addr in
  t.writes <- t.writes + 1;
  t.staged <- (a, v) :: t.staged

let commit t =
  (* staged list is in reverse program order; apply oldest first *)
  if t.staged <> [] then begin
    List.iter (fun (a, v) -> t.data.(a) <- v) (List.rev t.staged);
    t.staged <- []
  end;
  t.accesses_this_cycle <- 0

(** Direct (testbench) access, no port accounting. *)
let peek t i = t.data.(wrap_addr t (Int64.of_int i))
let poke t i v = t.data.(wrap_addr t (Int64.of_int i)) <- v

(** Deep copy (for engine snapshots). *)
let copy t = { t with data = Array.copy t.data }

(** Overwrite [t]'s state with [saved]'s; [saved] is left untouched. *)
let restore t ~saved =
  Array.blit saved.data 0 t.data 0 (Array.length t.data);
  t.staged <- saved.staged;
  t.accesses_this_cycle <- saved.accesses_this_cycle;
  t.port_violations <- saved.port_violations;
  t.reads <- saved.reads;
  t.writes <- saved.writes;
  t.wild_accesses <- saved.wild_accesses
