(* Per-store membership filter over (key, item_id) pairs: a Bloom-style
   bitset that lets a store's write path skip the walk of a key's item
   list when the pair is certainly absent.

   [mem] never answers [false] for a pair added since the last
   {!rebuild}, so a store that adds every new pair and rebuilds from
   its live items keeps the filter exact on the side that matters: a
   [false] skips a walk that would have found nothing; a [true] only
   costs the walk the store did unconditionally before.

   Sizing: a rebuild gives the bitset 16 bits per live item (at least
   512) and a capacity of one insertion per 8 bits, so the filter holds
   8–16 bits per item and, with 3 probes, answers a false [true] for
   about 0.5–3% of absent pairs. Removals and LWW replacements leave
   stale bits behind but add nothing; only insertions count towards the
   capacity, and once they reach it the owner rebuilds from the live
   items. A rebuild re-adds at most as many items as the insertions it
   then absorbs, so the amortized write cost stays O(1). Hashing is
   [Hashtbl.hash], which is never randomized: the same store holds the
   same bits on every run. *)

type t = {
  mutable bits : Bytes.t;  (* empty until the first rebuild; one insertion of capacity per byte *)
  mutable added : int;  (* insertions since the last rebuild, live items included *)
}

let create () = { bits = Bytes.empty; added = 0 }

(* The pair's two 30-bit [Hashtbl.hash] values packed into one int,
   computed once per store operation and shared by [mem] and [add]. *)
let hash key item_id = (Hashtbl.hash key lsl 30) lor Hashtbl.hash item_id

(* Double hashing (Kirsch–Mitzenmacher): probe i is x + i*d over 30
   bits, scaled onto the bitset by a multiply-shift. *)
let start h = (h lsr 30) lxor ((h land 0x3FFFFFFF) * 0x2545F491)
let step h = ((h land 0x3FFFFFFF) lxor ((h lsr 30) * 0x5bd1e995)) lor 1
let index t v = ((v land 0x3FFFFFFF) * (8 * Bytes.length t.bits)) lsr 30

let test_bit t v =
  let i = index t v in
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit t v =
  let i = index t v in
  let j = i lsr 3 in
  Bytes.unsafe_set t.bits j (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits j) lor (1 lsl (i land 7))))

let full t = t.added >= Bytes.length t.bits

let mem t h =
  Bytes.length t.bits > 0
  &&
  let x = start h and d = step h in
  test_bit t x && test_bit t (x + d) && test_bit t (x + (2 * d))

let add t h =
  let x = start h and d = step h in
  set_bit t x;
  set_bit t (x + d);
  set_bit t (x + (2 * d));
  t.added <- t.added + 1

(* Size for [live] items, then re-add their hashes through [iter]. *)
let rebuild t ~live iter =
  t.bits <- Bytes.make (max 64 (2 * live)) '\000';
  t.added <- 0;
  iter (add t)

let clear t =
  t.bits <- Bytes.empty;
  t.added <- 0

(* Accounting model of {!Store_intf.stats}: the record (header + 2
   fields) plus the bitset's header and word-padded data. *)
let bytes t =
  let n = Bytes.length t.bits in
  24 + if n = 0 then 0 else 8 + (8 * ((n / 8) + 1))
