(* Tests for hypertee_arch: PTE encoding, page tables, TLB, caches,
   bitmap, the Fig. 5 PTW flow, the memory-encryption engine, the
   mailbox, iHub, the area model and the perf model. *)

open Hypertee_arch

let check = Alcotest.check
let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick
let fresh_mem ?(frames = 512) () = Phys_mem.create ~frames

(* --- Pte --- *)

let test_pte_roundtrip_known () =
  let pte = Pte.leaf ~ppn:12345 ~r:true ~w:false ~x:true ~key_id:77 in
  let back = Pte.decode (Pte.encode pte) in
  check Alcotest.bool "equal" true (back = pte)

let prop_pte_roundtrip =
  prop
    (QCheck.Test.make ~name:"pte encode/decode roundtrip" ~count:300
       QCheck.(
         tup4 (int_bound ((1 lsl 28) - 1)) (int_bound ((1 lsl 16) - 1)) (tup3 bool bool bool)
           (tup3 bool bool bool))
       (fun (ppn, key_id, (r, w, x), (a, d, g)) ->
         let pte =
           {
             Pte.valid = true;
             readable = r;
             writable = w;
             executable = x;
             user = true;
             global = g;
             accessed = a;
             dirty = d;
             ppn;
             key_id;
           }
         in
         Pte.decode (Pte.encode pte) = pte))

let test_pte_invalid_args () =
  Alcotest.check_raises "ppn too large" (Invalid_argument "Pte.leaf: ppn out of range") (fun () ->
      ignore (Pte.leaf ~ppn:(1 lsl 28) ~r:true ~w:true ~x:false ~key_id:0));
  Alcotest.check_raises "key too large" (Invalid_argument "Pte.leaf: key_id out of range")
    (fun () -> ignore (Pte.leaf ~ppn:0 ~r:true ~w:true ~x:false ~key_id:(1 lsl 16)))

let test_pte_is_leaf () =
  check Alcotest.bool "table entry is not a leaf" false (Pte.is_leaf (Pte.table ~ppn:5));
  check Alcotest.bool "leaf is leaf" true
    (Pte.is_leaf (Pte.leaf ~ppn:5 ~r:true ~w:false ~x:false ~key_id:0))

(* --- Phys_mem --- *)

let test_phys_mem_ownership () =
  let mem = fresh_mem () in
  check Alcotest.bool "all free initially" true
    (Phys_mem.count_owned mem (fun o -> o = Phys_mem.Free) = Phys_mem.frames mem);
  Phys_mem.set_owner mem 3 (Phys_mem.Enclave 7);
  check Alcotest.bool "owner recorded" true (Phys_mem.owner mem 3 = Phys_mem.Enclave 7)

let test_phys_mem_rw () =
  let mem = fresh_mem () in
  let page = Bytes.make 4096 'z' in
  Phys_mem.write mem ~frame:5 page;
  check Alcotest.bytes "read back" page (Phys_mem.read mem ~frame:5);
  check Alcotest.bytes "unwritten reads zero" (Bytes.make 4096 '\000') (Phys_mem.read mem ~frame:6);
  Phys_mem.zero mem ~frame:5;
  check Alcotest.bytes "zeroed" (Bytes.make 4096 '\000') (Phys_mem.read mem ~frame:5)

let test_phys_mem_sub_access () =
  let mem = fresh_mem () in
  Phys_mem.write_sub mem ~frame:1 ~off:100 (Bytes.of_string "hello");
  check Alcotest.bytes "sub read" (Bytes.of_string "hello")
    (Phys_mem.read_sub mem ~frame:1 ~off:100 ~len:5);
  Phys_mem.write_u64 mem ~frame:1 ~off:8 42L;
  check Alcotest.int64 "u64" 42L (Phys_mem.read_u64 mem ~frame:1 ~off:8)

let test_phys_mem_bounds () =
  let mem = fresh_mem ~frames:4 () in
  Alcotest.check_raises "frame bounds" (Invalid_argument "Phys_mem: frame out of range") (fun () ->
      ignore (Phys_mem.owner mem 4));
  Alcotest.check_raises "write size" (Invalid_argument "Phys_mem.write: data must be one page")
    (fun () -> Phys_mem.write mem ~frame:0 (Bytes.create 5))

let test_phys_mem_find_free () =
  let mem = fresh_mem ~frames:8 () in
  Phys_mem.set_owner mem 0 Phys_mem.Cs_os;
  Phys_mem.set_owner mem 2 Phys_mem.Cs_os;
  (match Phys_mem.find_free mem ~n:3 with
  | Some fs -> check (Alcotest.list Alcotest.int) "skips used" [ 1; 3; 4 ] fs
  | None -> Alcotest.fail "should find frames");
  check Alcotest.bool "exhaustion" true (Phys_mem.find_free mem ~n:7 = None)

(* [find_free] keeps a lowest-free cursor; it must return exactly
   what a scan from frame 0 returns, over any interleaving of owner
   changes and lookups. *)
let prop_find_free_matches_scan =
  let scan mem ~n =
    let rec go i acc found =
      if found = n then Some (List.rev acc)
      else if i >= Phys_mem.frames mem then None
      else if Phys_mem.owner mem i = Phys_mem.Free then go (i + 1) (i :: acc) (found + 1)
      else go (i + 1) acc found
    in
    go 0 [] 0
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun f taken -> `Set (f, taken)) (int_range 0 23) bool);
          (2, map (fun n -> `Find n) (int_range 0 6));
          (1, map (fun n -> `Take n) (int_range 1 4));
        ])
  in
  let show = function
    | `Set (f, taken) -> Printf.sprintf "set %d %s" f (if taken then "taken" else "free")
    | `Find n -> Printf.sprintf "find %d" n
    | `Take n -> Printf.sprintf "take %d" n
  in
  prop
    (QCheck.Test.make ~name:"find_free = linear scan from frame 0" ~count:300
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map show ops))
          ~shrink:QCheck.Shrink.list
          QCheck.Gen.(list_size (int_range 1 60) op))
       (fun ops ->
         let mem = fresh_mem ~frames:24 () in
         List.for_all
           (function
             | `Set (f, taken) ->
               Phys_mem.set_owner mem f (if taken then Phys_mem.Cs_os else Phys_mem.Free);
               true
             | `Find n -> Phys_mem.find_free mem ~n = scan mem ~n
             | `Take n -> (
               (* What the OS allocator does: find, then claim. *)
               let expected = scan mem ~n in
               match Phys_mem.find_free mem ~n with
               | Some fs as got ->
                 List.iter (fun f -> Phys_mem.set_owner mem f Phys_mem.Pool) fs;
                 got = expected
               | None -> expected = None))
           ops))

(* --- Page_table --- *)

let make_pt mem = Page_table.create mem ~node_owner:Phys_mem.Cs_os ~alloc:(Page_table.default_alloc mem)

let test_pt_map_lookup_unmap () =
  let mem = fresh_mem () in
  let pt = make_pt mem in
  let pte = Pte.leaf ~ppn:42 ~r:true ~w:true ~x:false ~key_id:3 in
  Page_table.map pt ~vpn:0x1234 pte;
  (match Page_table.lookup pt ~vpn:0x1234 with
  | Some got -> check Alcotest.int "ppn" 42 got.Pte.ppn
  | None -> Alcotest.fail "mapping lost");
  check Alcotest.bool "other vpn unmapped" true (Page_table.lookup pt ~vpn:0x1235 = None);
  Page_table.unmap pt ~vpn:0x1234;
  check Alcotest.bool "unmapped" true (Page_table.lookup pt ~vpn:0x1234 = None)

let test_pt_remap_replaces () =
  let mem = fresh_mem () in
  let pt = make_pt mem in
  Page_table.map pt ~vpn:7 (Pte.leaf ~ppn:1 ~r:true ~w:false ~x:false ~key_id:0);
  Page_table.map pt ~vpn:7 (Pte.leaf ~ppn:2 ~r:true ~w:true ~x:false ~key_id:0);
  match Page_table.lookup pt ~vpn:7 with
  | Some pte ->
    check Alcotest.int "replaced" 2 pte.Pte.ppn;
    check Alcotest.bool "writable now" true pte.Pte.writable
  | None -> Alcotest.fail "mapping lost"

let test_pt_nodes_owned () =
  let mem = fresh_mem () in
  let pt = Page_table.create mem ~node_owner:(Phys_mem.Page_table 9) ~alloc:(Page_table.default_alloc mem) in
  Page_table.map pt ~vpn:0 (Pte.leaf ~ppn:1 ~r:true ~w:true ~x:false ~key_id:0);
  Page_table.map pt ~vpn:(512 * 512) (Pte.leaf ~ppn:2 ~r:true ~w:true ~x:false ~key_id:0);
  let nodes = Page_table.node_frames pt in
  check Alcotest.bool "several nodes" true (List.length nodes >= 3);
  List.iter
    (fun f -> check Alcotest.bool "stamped" true (Phys_mem.owner mem f = Phys_mem.Page_table 9))
    nodes

let test_pt_walk_frames () =
  let mem = fresh_mem () in
  let pt = make_pt mem in
  Page_table.map pt ~vpn:99 (Pte.leaf ~ppn:5 ~r:true ~w:false ~x:false ~key_id:0);
  let walk = Page_table.walk_frames pt ~vpn:99 in
  check Alcotest.int "three levels" 3 (List.length walk);
  (match walk with
  | (root, _) :: _ -> check Alcotest.int "starts at root" (Page_table.root_frame pt) root
  | [] -> Alcotest.fail "empty walk");
  (* Unmapped address: walk stops at the first invalid entry. *)
  let short = Page_table.walk_frames pt ~vpn:((511 * 512 * 512) + 1) in
  check Alcotest.int "short walk" 1 (List.length short)

let test_pt_ad_bits () =
  let mem = fresh_mem () in
  let pt = make_pt mem in
  Page_table.map pt ~vpn:3 (Pte.leaf ~ppn:1 ~r:true ~w:true ~x:false ~key_id:0);
  Page_table.update_flags pt ~vpn:3 ~accessed:true ~dirty:false;
  (match Page_table.lookup pt ~vpn:3 with
  | Some pte ->
    check Alcotest.bool "A set" true pte.Pte.accessed;
    check Alcotest.bool "D clear" false pte.Pte.dirty
  | None -> Alcotest.fail "lost");
  Page_table.update_flags pt ~vpn:3 ~accessed:false ~dirty:true;
  match Page_table.lookup pt ~vpn:3 with
  | Some pte ->
    check Alcotest.bool "A sticky" true pte.Pte.accessed;
    check Alcotest.bool "D set" true pte.Pte.dirty
  | None -> Alcotest.fail "lost"

let prop_pt_matches_model =
  prop
    (QCheck.Test.make ~name:"page table behaves like a map" ~count:60
       QCheck.(list (pair (int_bound 4000) (option (int_bound 1000))))
       (fun ops ->
         (* (vpn, Some ppn) = map; (vpn, None) = unmap. *)
         let mem = Phys_mem.create ~frames:2048 in
         let pt = make_pt mem in
         let model = Hashtbl.create 16 in
         List.iter
           (fun (vpn, op) ->
             match op with
             | Some ppn ->
               Page_table.map pt ~vpn (Pte.leaf ~ppn ~r:true ~w:true ~x:false ~key_id:0);
               Hashtbl.replace model vpn ppn
             | None ->
               Page_table.unmap pt ~vpn;
               Hashtbl.remove model vpn)
           ops;
         (* Compare every vpn ever touched plus the entries listing. *)
         List.for_all
           (fun (vpn, _) ->
             match (Page_table.lookup pt ~vpn, Hashtbl.find_opt model vpn) with
             | Some pte, Some ppn -> pte.Pte.ppn = ppn
             | None, None -> true
             | _ -> false)
           ops
         && List.length (Page_table.entries pt) = Hashtbl.length model))

(* --- Tlb --- *)

let entry vpn ppn = { Tlb.vpn; pte = Pte.leaf ~ppn ~r:true ~w:true ~x:false ~key_id:0; checked = false }

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~entries:4 in
  check Alcotest.bool "cold miss" true (Tlb.lookup tlb ~vpn:1 = None);
  Tlb.insert tlb (entry 1 10);
  (match Tlb.lookup tlb ~vpn:1 with
  | Some e -> check Alcotest.int "hit ppn" 10 e.Tlb.pte.Pte.ppn
  | None -> Alcotest.fail "expected hit");
  check Alcotest.int "hits" 1 (Tlb.hits tlb);
  check Alcotest.int "misses" 1 (Tlb.misses tlb)

let test_tlb_lru_eviction () =
  let tlb = Tlb.create ~entries:2 in
  Tlb.insert tlb (entry 1 10);
  Tlb.insert tlb (entry 2 20);
  ignore (Tlb.lookup tlb ~vpn:1);
  (* 2 is now LRU *)
  Tlb.insert tlb (entry 3 30);
  check Alcotest.bool "1 survives" true (Tlb.lookup tlb ~vpn:1 <> None);
  check Alcotest.bool "2 evicted" true (Tlb.lookup tlb ~vpn:2 = None);
  check Alcotest.bool "3 resident" true (Tlb.lookup tlb ~vpn:3 <> None)

let test_tlb_flush () =
  let tlb = Tlb.create ~entries:4 in
  Tlb.insert tlb (entry 1 10);
  Tlb.insert tlb (entry 2 20);
  Tlb.flush tlb;
  check Alcotest.int "empty" 0 (Tlb.occupancy tlb);
  check Alcotest.int "flush counted" 1 (Tlb.flushes tlb);
  Tlb.insert tlb (entry 3 30);
  Tlb.flush_vpn tlb ~vpn:3;
  check Alcotest.bool "targeted invalidation" true (Tlb.lookup tlb ~vpn:3 = None)

let test_tlb_mark_checked () =
  let tlb = Tlb.create ~entries:4 in
  Tlb.insert tlb (entry 5 50);
  Tlb.mark_checked tlb ~vpn:5;
  match Tlb.lookup tlb ~vpn:5 with
  | Some e -> check Alcotest.bool "checked" true e.Tlb.checked
  | None -> Alcotest.fail "entry lost"

let test_tlb_capacity_respected () =
  let tlb = Tlb.create ~entries:8 in
  for i = 0 to 63 do
    Tlb.insert tlb (entry i i)
  done;
  check Alcotest.int "never above capacity" 8 (Tlb.occupancy tlb)

(* --- Cache --- *)

let test_cache_geometry () =
  let c = Cache.create ~size_bytes:(64 * 1024) ~ways:8 ~line_bytes:64 in
  check Alcotest.int "sets" 128 (Cache.sets c);
  check Alcotest.int "ways" 8 (Cache.ways c);
  check Alcotest.int "line" 64 (Cache.line_bytes c)

let test_cache_hit_after_fill () =
  let c = Cache.create ~size_bytes:1024 ~ways:2 ~line_bytes:64 in
  check Alcotest.bool "first access misses" false (Cache.access c ~addr:0);
  check Alcotest.bool "second hits" true (Cache.access c ~addr:0);
  check Alcotest.bool "same line hits" true (Cache.access c ~addr:63);
  check Alcotest.bool "next line misses" false (Cache.access c ~addr:64)

let test_cache_lru_within_set () =
  let c = Cache.create ~size_bytes:(2 * 64) ~ways:2 ~line_bytes:64 in
  (* One set, two ways: three distinct lines thrash. *)
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:64);
  ignore (Cache.access c ~addr:0);
  (* 64 is LRU *)
  ignore (Cache.access c ~addr:128);
  check Alcotest.bool "0 survives" true (Cache.probe c ~addr:0);
  check Alcotest.bool "64 evicted" false (Cache.probe c ~addr:64)

let test_cache_invalidate () =
  let c = Cache.create ~size_bytes:1024 ~ways:2 ~line_bytes:64 in
  ignore (Cache.access c ~addr:0);
  Cache.invalidate_all c;
  check Alcotest.bool "gone" false (Cache.probe c ~addr:0)

let test_cache_counters () =
  let c = Cache.create ~size_bytes:1024 ~ways:2 ~line_bytes:64 in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:0);
  check Alcotest.int "hits" 1 (Cache.hits c);
  check Alcotest.int "misses" 1 (Cache.misses c);
  Cache.reset_counters c;
  check Alcotest.int "reset" 0 (Cache.hits c)

(* --- Bitmap --- *)

let test_bitmap_set_get_clear () =
  let mem = fresh_mem () in
  let bm = Bitmap.create mem in
  check Alcotest.bool "initially clear" false (Bitmap.get bm ~frame:10);
  Bitmap.set bm ~frame:10;
  check Alcotest.bool "set" true (Bitmap.get bm ~frame:10);
  check Alcotest.bool "neighbours untouched" false (Bitmap.get bm ~frame:11 || Bitmap.get bm ~frame:9);
  Bitmap.clear bm ~frame:10;
  check Alcotest.bool "cleared" false (Bitmap.get bm ~frame:10)

let test_bitmap_self_protecting () =
  let mem = fresh_mem () in
  let bm = Bitmap.create mem in
  (* The region's own frames are marked enclave memory. *)
  let base = Bitmap.base_frame bm in
  for f = base to base + Bitmap.region_frames bm - 1 do
    check Alcotest.bool "own frame protected" true (Bitmap.get bm ~frame:f);
    check Alcotest.bool "owner stamped" true (Phys_mem.owner mem f = Phys_mem.Bitmap_region)
  done

let test_bitmap_lives_in_memory () =
  (* The bits are real memory contents: flipping them through
     Phys_mem is visible to the checker (and vice versa). *)
  let mem = fresh_mem () in
  let bm = Bitmap.create mem in
  Bitmap.set bm ~frame:0;
  let b = Phys_mem.read_sub mem ~frame:(Bitmap.base_frame bm) ~off:0 ~len:1 in
  check Alcotest.int "bit 0 set in stored byte" 1 (Char.code (Bytes.get b 0) land 1)

let prop_bitmap_popcount =
  prop
    (QCheck.Test.make ~name:"popcount tracks distinct sets" ~count:30
       QCheck.(list_of_size Gen.(int_range 0 40) (int_bound 300))
       (fun frames ->
         let mem = Phys_mem.create ~frames:512 in
         let bm = Bitmap.create mem in
         let base_pop = Bitmap.popcount bm in
         List.iter (fun f -> Bitmap.set bm ~frame:f) frames;
         Bitmap.popcount bm = base_pop + List.length (List.sort_uniq compare frames)))

(* --- Ptw (Fig. 5) --- *)

let ptw_fixture () =
  let mem = fresh_mem () in
  let bm = Bitmap.create mem in
  let pt = make_pt mem in
  let ptw = Ptw.create (Tlb.create ~entries:8) ~bitmap:bm in
  (mem, bm, pt, ptw)

let test_ptw_walk_then_tlb_hit () =
  let _, _, pt, ptw = ptw_fixture () in
  Page_table.map pt ~vpn:5 (Pte.leaf ~ppn:50 ~r:true ~w:false ~x:false ~key_id:0);
  (match Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Read with
  | Ok o ->
    check Alcotest.bool "miss walked" false o.Ptw.tlb_hit;
    check Alcotest.int "levels" 3 o.Ptw.walked_levels;
    check Alcotest.bool "bitmap consulted" true o.Ptw.bitmap_checked;
    check Alcotest.int "frame" 50 o.Ptw.frame;
    check Alcotest.bool "charged cycles" true (o.Ptw.cycles > 0)
  | Error _ -> Alcotest.fail "translation failed");
  match Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Read with
  | Ok o ->
    check Alcotest.bool "now hits" true o.Ptw.tlb_hit;
    check Alcotest.bool "no recheck" false o.Ptw.bitmap_checked;
    check Alcotest.int "free" 0 o.Ptw.cycles
  | Error _ -> Alcotest.fail "hit failed"

let test_ptw_page_fault () =
  let _, _, pt, ptw = ptw_fixture () in
  match Ptw.translate ptw ~table:pt ~vpn:1234 ~access:Ptw.Read with
  | Error Ptw.Page_fault -> ()
  | _ -> Alcotest.fail "expected page fault"

let test_ptw_permission_fault () =
  let _, _, pt, ptw = ptw_fixture () in
  Page_table.map pt ~vpn:5 (Pte.leaf ~ppn:50 ~r:true ~w:false ~x:false ~key_id:0);
  (match Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Write with
  | Error Ptw.Permission_fault -> ()
  | _ -> Alcotest.fail "expected permission fault");
  (* And on a resident (checked) entry too. *)
  ignore (Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Read);
  match Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Write with
  | Error Ptw.Permission_fault -> ()
  | _ -> Alcotest.fail "expected permission fault on TLB hit"

let test_ptw_bitmap_fault_non_enclave () =
  let _, bm, pt, ptw = ptw_fixture () in
  Bitmap.set bm ~frame:50;
  Page_table.map pt ~vpn:5 (Pte.leaf ~ppn:50 ~r:true ~w:true ~x:false ~key_id:0);
  (match Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Read with
  | Error Ptw.Bitmap_fault -> ()
  | _ -> Alcotest.fail "expected bitmap fault");
  check Alcotest.int "fault counted" 1 (Ptw.bitmap_faults ptw);
  (* The faulting translation must not be cached. *)
  match Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Read with
  | Error Ptw.Bitmap_fault -> ()
  | _ -> Alcotest.fail "fault must repeat (no TLB pollution)"

let test_ptw_enclave_mode_skips_bitmap () =
  let _, bm, pt, ptw = ptw_fixture () in
  Bitmap.set bm ~frame:50;
  Page_table.map pt ~vpn:5 (Pte.leaf ~ppn:50 ~r:true ~w:true ~x:false ~key_id:4);
  Ptw.set_enclave_mode ptw true;
  (match Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Read with
  | Ok o ->
    check Alcotest.bool "no bitmap check in enclave mode" false o.Ptw.bitmap_checked;
    check Alcotest.int "key id carried" 4 o.Ptw.key_id
  | Error _ -> Alcotest.fail "enclave access should succeed");
  check Alcotest.bool "mode readable" true (Ptw.enclave_mode ptw)

let test_ptw_mode_switch_flushes () =
  let _, _, pt, ptw = ptw_fixture () in
  Page_table.map pt ~vpn:5 (Pte.leaf ~ppn:50 ~r:true ~w:false ~x:false ~key_id:0);
  ignore (Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Read);
  check Alcotest.int "resident" 1 (Tlb.occupancy (Ptw.tlb ptw));
  Ptw.set_enclave_mode ptw true;
  check Alcotest.int "flushed on switch" 0 (Tlb.occupancy (Ptw.tlb ptw))

let test_ptw_ad_update () =
  let _, _, pt, ptw = ptw_fixture () in
  Page_table.map pt ~vpn:5 (Pte.leaf ~ppn:50 ~r:true ~w:true ~x:false ~key_id:0);
  ignore (Ptw.translate ptw ~table:pt ~vpn:5 ~access:Ptw.Write);
  match Page_table.lookup pt ~vpn:5 with
  | Some pte ->
    check Alcotest.bool "accessed" true pte.Pte.accessed;
    check Alcotest.bool "dirty" true pte.Pte.dirty
  | None -> Alcotest.fail "lost"

(* --- Mem_encryption --- *)

let test_mee_roundtrip () =
  let mee = Mem_encryption.create ~slots:8 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'k');
  let page = Bytes.make 4096 'd' in
  let ct = Mem_encryption.store mee ~key_id:1 ~frame:7 page in
  check Alcotest.bool "ciphertext differs" false (Bytes.equal ct page);
  check Alcotest.bytes "load decrypts" page (Mem_encryption.load mee ~key_id:1 ~frame:7 ct)

let test_mee_bypass_slot () =
  let mee = Mem_encryption.create ~slots:8 () in
  let page = Bytes.make 4096 'd' in
  check Alcotest.bytes "key 0 is plaintext" page (Mem_encryption.store mee ~key_id:0 ~frame:1 page)

let test_mee_integrity () =
  let mee = Mem_encryption.create ~slots:8 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'k');
  let ct = Mem_encryption.store mee ~key_id:1 ~frame:7 (Bytes.make 4096 'd') in
  let tampered = Bytes.copy ct in
  Bytes.set tampered 100 (Char.chr (Char.code (Bytes.get tampered 100) lxor 1));
  Alcotest.check_raises "tamper detected" (Mem_encryption.Integrity_violation { frame = 7 })
    (fun () -> ignore (Mem_encryption.load mee ~key_id:1 ~frame:7 tampered))

let test_mee_uninitialised_faults () =
  let mee = Mem_encryption.create ~slots:8 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'k');
  Alcotest.check_raises "no MAC on record" (Mem_encryption.Integrity_violation { frame = 3 })
    (fun () -> ignore (Mem_encryption.load mee ~key_id:1 ~frame:3 (Bytes.make 4096 'x')))

let test_mee_cross_key () =
  let mee = Mem_encryption.create ~slots:8 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'a');
  Mem_encryption.program mee ~key_id:2 (Bytes.make 16 'b');
  let ct1 = Mem_encryption.store mee ~key_id:1 ~frame:7 (Bytes.make 4096 'd') in
  (* Loading another enclave's line under your own key must not
     yield its plaintext (and faults the MAC). *)
  (match Mem_encryption.load mee ~key_id:2 ~frame:7 ct1 with
  | _ -> ()
  | exception Mem_encryption.Integrity_violation _ -> ());
  check Alcotest.bool "cross-key read is not plaintext" true
    (try not (Bytes.equal (Mem_encryption.load mee ~key_id:2 ~frame:7 ct1) (Bytes.make 4096 'd'))
     with Mem_encryption.Integrity_violation _ -> true)

let test_mee_revoke_and_reuse () =
  let mee = Mem_encryption.create ~slots:4 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'a');
  let ct = Mem_encryption.store mee ~key_id:1 ~frame:2 (Bytes.make 4096 's') in
  Mem_encryption.revoke mee ~key_id:1;
  check Alcotest.bool "slot free" false (Mem_encryption.is_programmed mee ~key_id:1);
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'b');
  (* Old ciphertext must not satisfy the MAC of the new tenant. *)
  Alcotest.check_raises "stale line rejected" (Mem_encryption.Integrity_violation { frame = 2 })
    (fun () -> ignore (Mem_encryption.load mee ~key_id:1 ~frame:2 ct))

let test_mee_slot_management () =
  let mee = Mem_encryption.create ~slots:4 () in
  check (Alcotest.option Alcotest.int) "first free" (Some 1) (Mem_encryption.find_free_slot mee);
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'a');
  Mem_encryption.program mee ~key_id:2 (Bytes.make 16 'b');
  Mem_encryption.program mee ~key_id:3 (Bytes.make 16 'c');
  check (Alcotest.option Alcotest.int) "exhausted" None (Mem_encryption.find_free_slot mee);
  Alcotest.check_raises "key 0 not programmable"
    (Invalid_argument "Mem_encryption: key_id out of programmable range") (fun () ->
      Mem_encryption.program mee ~key_id:0 (Bytes.make 16 'z'))

(* --- Mailbox --- *)

let respond_ok mb ~request_id body =
  match Mailbox.send_response mb ~request_id body with
  | Ok () -> ()
  | Error `Unknown_or_answered -> Alcotest.fail "send_response rejected a live request id"

let test_mailbox_request_response () =
  let mb = Mailbox.create () in
  let id1 = Result.get_ok (Mailbox.send_request mb ~sender_enclave:None "req1") in
  let id2 = Result.get_ok (Mailbox.send_request mb ~sender_enclave:(Some 4) "req2") in
  check Alcotest.bool "distinct ids" true (id1 <> id2);
  (match Mailbox.recv_request mb with
  | Some p ->
    check Alcotest.string "fifo order" "req1" p.Mailbox.body;
    check (Alcotest.option Alcotest.int) "host sender" None p.Mailbox.sender_enclave;
    respond_ok mb ~request_id:p.Mailbox.request_id "resp1"
  | None -> Alcotest.fail "no request");
  (match Mailbox.recv_request mb with
  | Some p ->
    check (Alcotest.option Alcotest.int) "enclave stamped" (Some 4) p.Mailbox.sender_enclave;
    respond_ok mb ~request_id:p.Mailbox.request_id "resp2"
  | None -> Alcotest.fail "no request");
  (* Responses are bound to their ids — collecting with the wrong id
     never yields another's response. *)
  check (Alcotest.option Alcotest.string) "id binding" (Some "resp2") (Mailbox.poll_response mb ~request_id:id2);
  check (Alcotest.option Alcotest.string) "consumed once" None (Mailbox.poll_response mb ~request_id:id2);
  check (Alcotest.option Alcotest.string) "other response intact" (Some "resp1")
    (Mailbox.poll_response mb ~request_id:id1)

let test_mailbox_unknown_response_rejected () =
  let mb : (string, string) Mailbox.t = Mailbox.create () in
  (* A faulty worker answering an unknown id gets an error back, not
     an exception: the platform must survive confused workers. *)
  (match Mailbox.send_response mb ~request_id:999 "spoof" with
  | Error `Unknown_or_answered -> ()
  | Ok () -> Alcotest.fail "spoofed response accepted");
  (* Same for a double answer: the first one wins, the second is
     rejected and the delivered value is the first. *)
  let id = Result.get_ok (Mailbox.send_request mb ~sender_enclave:None "req") in
  (match Mailbox.recv_request mb with
  | Some p -> respond_ok mb ~request_id:p.Mailbox.request_id "first"
  | None -> Alcotest.fail "no request");
  (match Mailbox.send_response mb ~request_id:id "second" with
  | Error `Unknown_or_answered -> ()
  | Ok () -> Alcotest.fail "double answer accepted");
  check (Alcotest.option Alcotest.string) "first answer delivered" (Some "first")
    (Mailbox.poll_response mb ~request_id:id)

let test_mailbox_retransmit_cache () =
  let mb : (string, string) Mailbox.t = Mailbox.create () in
  let id = Result.get_ok (Mailbox.send_request mb ~sender_enclave:None "req") in
  check Alcotest.bool "pending before answer" true (Mailbox.resend_request mb ~request_id:id = `Pending);
  (match Mailbox.recv_request mb with
  | Some p -> respond_ok mb ~request_id:p.Mailbox.request_id "resp"
  | None -> Alcotest.fail "no request");
  check (Alcotest.option Alcotest.string) "delivered" (Some "resp")
    (Mailbox.poll_response mb ~request_id:id);
  (* A retransmit after consumption re-posts the cached response
     without re-executing anything EMS-side. *)
  check Alcotest.bool "retransmitted from cache" true
    (Mailbox.resend_request mb ~request_id:id = `Retransmitted);
  check Alcotest.int "no new request enqueued" 0 (Mailbox.pending_requests mb);
  check (Alcotest.option Alcotest.string) "cached copy delivered" (Some "resp")
    (Mailbox.poll_response mb ~request_id:id);
  check Alcotest.bool "unknown id" true (Mailbox.resend_request mb ~request_id:777 = `Unknown)

let test_mailbox_backpressure () =
  let mb : (int, int) Mailbox.t = Mailbox.create ~depth:2 () in
  ignore (Mailbox.send_request mb ~sender_enclave:None 1);
  ignore (Mailbox.send_request mb ~sender_enclave:None 2);
  (match Mailbox.send_request mb ~sender_enclave:None 3 with
  | Error `Full -> ()
  | Ok _ -> Alcotest.fail "expected back-pressure");
  check Alcotest.int "pending" 2 (Mailbox.pending_requests mb)

(* --- Ihub --- *)

let test_ihub_unidirectional () =
  let mem = fresh_mem () in
  let hub = Ihub.create mem in
  Phys_mem.set_owner mem 9 Phys_mem.Ems_private;
  check Alcotest.bool "EMS reads everything" true
    (Ihub.check hub ~initiator:Ihub.Ems ~direction:Ihub.Load ~frame:9 = Ok ());
  (match Ihub.check hub ~initiator:Ihub.Cs_software ~direction:Ihub.Load ~frame:9 with
  | Error Ihub.Ems_private_memory -> ()
  | _ -> Alcotest.fail "CS must not see EMS memory");
  check Alcotest.int "denial counted" 1 (Ihub.denials hub)

let test_ihub_dma_whitelist () =
  let mem = fresh_mem () in
  let hub = Ihub.create mem in
  (match Ihub.check hub ~initiator:(Ihub.Dma 0) ~direction:Ihub.Load ~frame:5 with
  | Error Ihub.Outside_dma_window -> ()
  | _ -> Alcotest.fail "no window means no access");
  Ihub.configure_dma_window hub ~channel:0 ~base_frame:4 ~frames:4 ~writable:false;
  check Alcotest.bool "inside window read" true
    (Ihub.check hub ~initiator:(Ihub.Dma 0) ~direction:Ihub.Load ~frame:5 = Ok ());
  (match Ihub.check hub ~initiator:(Ihub.Dma 0) ~direction:Ihub.Store ~frame:5 with
  | Error Ihub.Dma_window_readonly -> ()
  | _ -> Alcotest.fail "read-only window must reject stores");
  (match Ihub.check hub ~initiator:(Ihub.Dma 0) ~direction:Ihub.Load ~frame:8 with
  | Error Ihub.Outside_dma_window -> ()
  | _ -> Alcotest.fail "beyond window rejected");
  Ihub.clear_dma_window hub ~channel:0;
  (match Ihub.check hub ~initiator:(Ihub.Dma 0) ~direction:Ihub.Load ~frame:5 with
  | Error Ihub.Outside_dma_window -> ()
  | _ -> Alcotest.fail "cleared window blocks")

let test_ihub_channels_isolated () =
  let mem = fresh_mem () in
  let hub = Ihub.create mem in
  Ihub.configure_dma_window hub ~channel:1 ~base_frame:0 ~frames:4 ~writable:true;
  match Ihub.check hub ~initiator:(Ihub.Dma 2) ~direction:Ihub.Load ~frame:1 with
  | Error Ihub.Outside_dma_window -> ()
  | _ -> Alcotest.fail "channel 2 must not use channel 1's window"

(* --- Area (Table V) --- *)

let test_area_anchors () =
  let reports = Area.table_v () in
  check Alcotest.int "five columns" 5 (List.length reports);
  List.iter
    (fun (r : Area.report) ->
      check Alcotest.bool
        (Printf.sprintf "%d cores under 1%%" r.Area.cs_cores)
        true (r.Area.overhead_pct < 1.0))
    reports;
  (* Exact paper anchors. *)
  let by_cores n = List.find (fun r -> r.Area.cs_cores = n) reports in
  check (Alcotest.float 0.01) "4-core CS" 35.0 (by_cores 4).Area.cs_area_mm2;
  check (Alcotest.float 0.01) "64-core CS" 612.0 (by_cores 64).Area.cs_area_mm2;
  check (Alcotest.float 0.001) "1 weak EMS" 0.34 (by_cores 4).Area.ems_area_mm2;
  check (Alcotest.float 0.001) "2 medium EMS" 1.5 (by_cores 64).Area.ems_area_mm2;
  check (Alcotest.float 0.03) "4-core overhead" 0.97 (by_cores 4).Area.overhead_pct;
  check (Alcotest.float 0.03) "64-core overhead" 0.25 (by_cores 64).Area.overhead_pct

let test_area_interpolation () =
  let r = Area.evaluate ~cs_cores:12 in
  check Alcotest.bool "between anchors" true
    (r.Area.cs_area_mm2 > 74.0 && r.Area.cs_area_mm2 < 151.0)

(* --- Perf_model --- *)

let light_behavior =
  {
    Perf_model.mem_refs_per_kinst = 300.0;
    l1_mpki = 5.0;
    l2_mpki = 1.0;
    llc_mpki = 0.5;
    tlb_mpki = 0.3;
  }

let test_perf_scenarios_ordered () =
  let run scenario =
    (Perf_model.run Config.cs_core Config.default_latency ~instructions:1e9
       ~behavior:light_behavior ~scenario)
      .Perf_model.time_ns
  in
  let native = run Perf_model.native in
  let enc = run Perf_model.m_encrypt in
  let bm = run Perf_model.bitmap in
  check Alcotest.bool "encryption costs" true (enc > native);
  check Alcotest.bool "bitmap costs" true (bm > native);
  check Alcotest.bool "overheads are small" true (enc < native *. 1.10 && bm < native *. 1.10)

let test_perf_inorder_slower () =
  let time core =
    (Perf_model.run core Config.default_latency ~instructions:1e8 ~behavior:light_behavior
       ~scenario:Perf_model.native)
      .Perf_model.time_ns
  in
  check Alcotest.bool "weak slower than CS" true (time Config.ems_weak > time Config.cs_core)

let test_perf_flushes_cost () =
  let run f =
    (Perf_model.run Config.cs_core Config.default_latency ~instructions:1e9
       ~behavior:light_behavior
       ~scenario:{ Perf_model.native with extra_tlb_flushes_per_sec = f })
      .Perf_model.time_ns
  in
  check Alcotest.bool "flushes add time" true (run 400.0 > run 0.0);
  check Alcotest.bool "monotone in frequency" true (run 400.0 > run 100.0)

let suite =
  [
    ( "arch.pte",
      [
        Alcotest.test_case "roundtrip" `Quick test_pte_roundtrip_known;
        Alcotest.test_case "invalid args" `Quick test_pte_invalid_args;
        Alcotest.test_case "is_leaf" `Quick test_pte_is_leaf;
        prop_pte_roundtrip;
      ] );
    ( "arch.phys_mem",
      [
        Alcotest.test_case "ownership" `Quick test_phys_mem_ownership;
        Alcotest.test_case "read/write" `Quick test_phys_mem_rw;
        Alcotest.test_case "sub access" `Quick test_phys_mem_sub_access;
        Alcotest.test_case "bounds" `Quick test_phys_mem_bounds;
        Alcotest.test_case "find_free" `Quick test_phys_mem_find_free;
        prop_find_free_matches_scan;
      ] );
    ( "arch.page_table",
      [
        Alcotest.test_case "map/lookup/unmap" `Quick test_pt_map_lookup_unmap;
        Alcotest.test_case "remap replaces" `Quick test_pt_remap_replaces;
        Alcotest.test_case "nodes owned" `Quick test_pt_nodes_owned;
        Alcotest.test_case "walk frames" `Quick test_pt_walk_frames;
        Alcotest.test_case "A/D bits" `Quick test_pt_ad_bits;
        prop_pt_matches_model;
      ] );
    ( "arch.tlb",
      [
        Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
        Alcotest.test_case "LRU eviction" `Quick test_tlb_lru_eviction;
        Alcotest.test_case "flush" `Quick test_tlb_flush;
        Alcotest.test_case "mark checked" `Quick test_tlb_mark_checked;
        Alcotest.test_case "capacity" `Quick test_tlb_capacity_respected;
      ] );
    ( "arch.cache",
      [
        Alcotest.test_case "geometry" `Quick test_cache_geometry;
        Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
        Alcotest.test_case "LRU within set" `Quick test_cache_lru_within_set;
        Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
        Alcotest.test_case "counters" `Quick test_cache_counters;
      ] );
    ( "arch.bitmap",
      [
        Alcotest.test_case "set/get/clear" `Quick test_bitmap_set_get_clear;
        Alcotest.test_case "self-protecting" `Quick test_bitmap_self_protecting;
        Alcotest.test_case "bits live in memory" `Quick test_bitmap_lives_in_memory;
        prop_bitmap_popcount;
      ] );
    ( "arch.ptw",
      [
        Alcotest.test_case "walk then TLB hit (Fig. 5)" `Quick test_ptw_walk_then_tlb_hit;
        Alcotest.test_case "page fault" `Quick test_ptw_page_fault;
        Alcotest.test_case "permission fault" `Quick test_ptw_permission_fault;
        Alcotest.test_case "bitmap fault" `Quick test_ptw_bitmap_fault_non_enclave;
        Alcotest.test_case "enclave mode skips bitmap" `Quick test_ptw_enclave_mode_skips_bitmap;
        Alcotest.test_case "mode switch flushes TLB" `Quick test_ptw_mode_switch_flushes;
        Alcotest.test_case "A/D updates" `Quick test_ptw_ad_update;
      ] );
    ( "arch.mem_encryption",
      [
        Alcotest.test_case "roundtrip" `Quick test_mee_roundtrip;
        Alcotest.test_case "bypass slot" `Quick test_mee_bypass_slot;
        Alcotest.test_case "integrity violation" `Quick test_mee_integrity;
        Alcotest.test_case "uninitialised faults" `Quick test_mee_uninitialised_faults;
        Alcotest.test_case "cross-key isolation" `Quick test_mee_cross_key;
        Alcotest.test_case "revoke and reuse" `Quick test_mee_revoke_and_reuse;
        Alcotest.test_case "slot management" `Quick test_mee_slot_management;
      ] );
    ( "arch.mailbox",
      [
        Alcotest.test_case "request/response binding" `Quick test_mailbox_request_response;
        Alcotest.test_case "unknown response rejected" `Quick test_mailbox_unknown_response_rejected;
        Alcotest.test_case "retransmit cache" `Quick test_mailbox_retransmit_cache;
        Alcotest.test_case "back-pressure" `Quick test_mailbox_backpressure;
      ] );
    ( "arch.ihub",
      [
        Alcotest.test_case "unidirectional isolation" `Quick test_ihub_unidirectional;
        Alcotest.test_case "DMA whitelist" `Quick test_ihub_dma_whitelist;
        Alcotest.test_case "channels isolated" `Quick test_ihub_channels_isolated;
      ] );
    ( "arch.area",
      [
        Alcotest.test_case "Table V anchors" `Quick test_area_anchors;
        Alcotest.test_case "interpolation" `Quick test_area_interpolation;
      ] );
    ( "arch.perf_model",
      [
        Alcotest.test_case "scenario ordering" `Quick test_perf_scenarios_ordered;
        Alcotest.test_case "in-order slower" `Quick test_perf_inorder_slower;
        Alcotest.test_case "flush cost" `Quick test_perf_flushes_cost;
      ] );
  ]
