(** Merkle hash tree over fixed-size data blocks.

    Used by the VM-level TEE extension (paper Sec. IX): a CVM
    snapshot encrypts guest memory and roots its integrity in a
    Merkle tree whose root hash lives in EMS private memory; restore
    and migration verify each block against the root. SHA-256
    throughout; an odd node at any level is promoted (duplicated
    hashing is a known second-preimage hazard). *)

type t

(** [build blocks] hashes each block as a leaf and folds the tree.
    Raises [Invalid_argument] on an empty list. *)
val build : bytes list -> t

val root : t -> bytes
val leaf_count : t -> int

(** [proof t ~index] is the authentication path for leaf [index]:
    sibling hashes bottom-up, each tagged with whether the sibling
    sits on the left. *)
val proof : t -> index:int -> (bool * bytes) list

(** [verify ~root ~index ~leaf_count proof block] recomputes the path
    for [block] at [index] and compares against [root]. Stateless:
    the verifier needs only the root (which is what EMS keeps). *)
val verify : root:bytes -> index:int -> leaf_count:int -> (bool * bytes) list -> bytes -> bool

(** [update t ~index block] replaces a leaf and recomputes the spine
    to the root (dirty-page tracking during snapshots). *)
val update : t -> index:int -> bytes -> t
