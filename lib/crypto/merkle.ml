(* Levels bottom-up: levels.(0) is the leaf-hash array, the last
   level holds exactly the root. Leaf and interior hashing are
   domain-separated to block leaf/interior confusion attacks. *)

type t = { levels : bytes array array }

(* Domain tags and a reused per-domain context: feeding tag and
   operands through one streaming context hashes the same byte
   sequence as the old concat-then-digest, without building the
   concatenation. Domain-local so trees built on different domains
   never share a context. *)
let leaf_tag = Bytes.of_string "\x00leaf"
let node_tag = Bytes.of_string "\x01node"
let hctx : Sha256.ctx Domain.DLS.key = Domain.DLS.new_key (fun () -> Sha256.init ())

let leaf_hash block =
  let hctx = Domain.DLS.get hctx in
  Sha256.reset hctx;
  Sha256.update hctx leaf_tag;
  Sha256.update hctx block;
  Sha256.finalize hctx

let node_hash left right =
  let hctx = Domain.DLS.get hctx in
  Sha256.reset hctx;
  Sha256.update hctx node_tag;
  Sha256.update hctx left;
  Sha256.update hctx right;
  Sha256.finalize hctx

let parent_level level =
  let n = Array.length level in
  let parents = (n + 1) / 2 in
  Array.init parents (fun i ->
      let left = level.(2 * i) in
      if (2 * i) + 1 < n then node_hash left level.((2 * i) + 1)
      else node_hash left left (* odd promotion: duplicate *))

let build blocks =
  if blocks = [] then invalid_arg "Merkle.build: no blocks";
  let leaves = Array.of_list (List.map leaf_hash blocks) in
  let rec grow acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else grow (level :: acc) (parent_level level)
  in
  { levels = Array.of_list (grow [] leaves) }

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  Bytes.copy top.(0)

let leaf_count t = Array.length t.levels.(0)

let proof t ~index =
  if index < 0 || index >= leaf_count t then invalid_arg "Merkle.proof: index out of range";
  let path = ref [] in
  let i = ref index in
  for lvl = 0 to Array.length t.levels - 2 do
    let level = t.levels.(lvl) in
    let sibling = if !i land 1 = 0 then !i + 1 else !i - 1 in
    let sib_hash =
      if sibling < Array.length level then level.(sibling) else level.(!i) (* odd promotion *)
    in
    (* true = the sibling is on the left of the combining order *)
    path := (!i land 1 = 1, sib_hash) :: !path;
    i := !i / 2
  done;
  List.rev !path

let verify ~root:expected ~index ~leaf_count proof block =
  if index < 0 || index >= leaf_count then false
  else begin
    let acc = ref (leaf_hash block) in
    List.iter
      (fun (sibling_left, sib) ->
        acc := if sibling_left then node_hash sib !acc else node_hash !acc sib)
      proof;
    Hypertee_util.Bytes_ext.equal_ct !acc expected
  end

let update t ~index block =
  if index < 0 || index >= leaf_count t then invalid_arg "Merkle.update: index out of range";
  let levels = Array.map Array.copy t.levels in
  levels.(0).(index) <- leaf_hash block;
  let i = ref index in
  for lvl = 0 to Array.length levels - 2 do
    let level = levels.(lvl) in
    let parent = !i / 2 in
    let left = level.(2 * parent) in
    let right =
      if (2 * parent) + 1 < Array.length level then level.((2 * parent) + 1) else left
    in
    levels.(lvl + 1).(parent) <- node_hash left right;
    i := parent
  done;
  { levels }
