(* File-backed log-structured store: an append-only record file plus
   the hash store as its in-memory index.

   Every mutation appends one binary record ('P' put / 'R' remove /
   'C' clear) and applies it to the index; opening a path replays the
   file to rebuild the index. Writes go through a buffered channel and
   are never fsynced — the simulator does not model disk latency — so
   the crash model is explicit instead: {!crash} closes the channel
   (process death), {!truncate_tail} injects the torn tail (the page-
   cache suffix a real crash would lose, cut at an arbitrary byte, mid-
   record allowed), and {!reopen} replays the surviving prefix. Replay
   stops at the first incomplete or unparseable record and truncates
   the file there, so a torn tail costs exactly the records it
   clipped; the revived peer then lets anti-entropy/{!Repair} restore
   the delta from its replica group.

   Record wire format (big-endian):
     'P' version:8 klen:4 idlen:4 plen:4 key id payload
     'R' klen:4 idlen:4 key id
     'C' *)

open Store_intf

type t = {
  path : string;
  mem : Backend_hash.t;
  mutable chan : out_channel option;  (* [None] while crashed *)
  mutable length : int;  (* logical end of the log, in bytes *)
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let read_file path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  end
  else ""

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Record encoding                                                     *)

let add_u32 b n = Buffer.add_int32_be b (Int32.of_int n)

let encode_put (i : item) =
  let b = Buffer.create (21 + String.length i.key + String.length i.item_id + String.length i.payload) in
  Buffer.add_char b 'P';
  Buffer.add_int64_be b (Int64.of_int i.version);
  add_u32 b (String.length i.key);
  add_u32 b (String.length i.item_id);
  add_u32 b (String.length i.payload);
  Buffer.add_string b i.key;
  Buffer.add_string b i.item_id;
  Buffer.add_string b i.payload;
  Buffer.contents b

let encode_remove ~key ~item_id =
  let b = Buffer.create (9 + String.length key + String.length item_id) in
  Buffer.add_char b 'R';
  add_u32 b (String.length key);
  add_u32 b (String.length item_id);
  Buffer.add_string b key;
  Buffer.add_string b item_id;
  Buffer.contents b

let get_u32 s off = Int32.to_int (String.get_int32_be s off)

(* Replay [s] into [mem], stopping at the first torn (incomplete) or
   unparseable record. Returns the byte offset of the valid prefix. *)
let replay s mem =
  let n = String.length s in
  let pos = ref 0 in
  let valid = ref 0 in
  let stop = ref false in
  while (not !stop) && !pos < n do
    (match s.[!pos] with
    | 'C' ->
      Backend_hash.clear mem;
      pos := !pos + 1;
      valid := !pos
    | 'P' when !pos + 21 <= n ->
      let version = Int64.to_int (String.get_int64_be s (!pos + 1)) in
      let klen = get_u32 s (!pos + 9) in
      let idlen = get_u32 s (!pos + 13) in
      let plen = get_u32 s (!pos + 17) in
      if klen < 0 || idlen < 0 || plen < 0 || !pos + 21 + klen + idlen + plen > n then stop := true
      else begin
        let key = String.sub s (!pos + 21) klen in
        let item_id = String.sub s (!pos + 21 + klen) idlen in
        let payload = String.sub s (!pos + 21 + klen + idlen) plen in
        ignore (Backend_hash.put mem { key; item_id; payload; version });
        pos := !pos + 21 + klen + idlen + plen;
        valid := !pos
      end
    | 'R' when !pos + 9 <= n ->
      let klen = get_u32 s (!pos + 1) in
      let idlen = get_u32 s (!pos + 5) in
      if klen < 0 || idlen < 0 || !pos + 9 + klen + idlen > n then stop := true
      else begin
        let key = String.sub s (!pos + 9) klen in
        let item_id = String.sub s (!pos + 9 + klen) idlen in
        Backend_hash.remove mem ~key ~item_id;
        pos := !pos + 9 + klen + idlen;
        valid := !pos
      end
    | _ -> stop := true);
    ()
  done;
  !valid

(* ------------------------------------------------------------------ *)
(* Open / crash / restart                                              *)

let open_append path =
  open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path

(* Rebuild the index from the file's valid prefix, truncate any torn
   suffix away, and resume appending. Returns the recovered item
   count. *)
let reopen t =
  (match t.chan with
  | Some oc ->
    close_out oc;
    t.chan <- None
  | None -> ());
  let s = read_file t.path in
  Backend_hash.clear t.mem;
  let valid = replay s t.mem in
  if valid < String.length s then write_file t.path (String.sub s 0 valid);
  t.length <- valid;
  t.chan <- Some (open_append t.path);
  Backend_hash.size t.mem

let create ~path =
  mkdir_p (Filename.dirname path);
  let t = { path; mem = Backend_hash.create (); chan = None; length = 0 } in
  ignore (reopen t);
  t

let path t = t.path
let log_bytes t = t.length

(* Process death: drop the channel (flushing — torn tails are injected
   explicitly below, so tests control exactly what survives). *)
let crash t =
  match t.chan with
  | Some oc ->
    close_out oc;
    t.chan <- None
  | None -> ()

(* Inject the torn tail: keep only the first [keep_bytes] bytes of the
   log, as if everything after them never reached the disk. Only
   meaningful between {!crash} and {!reopen}. *)
let truncate_tail t ~keep_bytes =
  let s = read_file t.path in
  let keep = max 0 (min keep_bytes (String.length s)) in
  write_file t.path (String.sub s 0 keep);
  t.length <- keep

(* ------------------------------------------------------------------ *)
(* Store_intf.S                                                        *)

let append t s =
  match t.chan with
  | None -> ()  (* crashed: the peer is dead; nothing to persist *)
  | Some oc ->
    output_string oc s;
    t.length <- t.length + String.length s

let put t (i : item) =
  if Backend_hash.put t.mem i then begin
    append t (encode_put i);
    true
  end
  else false

let remove t ~key ~item_id =
  if Backend_hash.remove_found t.mem ~key ~item_id then append t (encode_remove ~key ~item_id)

let find t key = Backend_hash.find t.mem key
let range t ~lo ~hi = Backend_hash.range t.mem ~lo ~hi
let with_prefix t prefix = Backend_hash.with_prefix t.mem prefix
let size t = Backend_hash.size t.mem
let iter t f = Backend_hash.iter t.mem f
let to_list t = Backend_hash.to_list t.mem

let filter_partition t pred =
  let removed = Backend_hash.filter_partition t.mem pred in
  List.iter (fun (i : item) -> append t (encode_remove ~key:i.key ~item_id:i.item_id)) removed;
  removed

let digest t = Backend_hash.digest t.mem

(* A clear supersedes the whole history: restart the segment instead of
   appending a 'C' record to an ever-growing file. *)
let clear t =
  Backend_hash.clear t.mem;
  match t.chan with
  | Some oc ->
    close_out oc;
    write_file t.path "";
    t.length <- 0;
    t.chan <- Some (open_append t.path)
  | None ->
    write_file t.path "";
    t.length <- 0

(* Memory cost only — the index; the on-disk segment is {!log_bytes}. *)
let stats t = Backend_hash.stats t.mem

(* Flush buffered appends to the OS (tests that read the file
   out-of-band; crash paths flush via close). *)
let sync t = match t.chan with Some oc -> flush oc | None -> ()
