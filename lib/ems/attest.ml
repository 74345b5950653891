type quote = {
  platform_measurement : bytes;
  enclave_measurement : bytes;
  user_data : bytes;
  platform_signature : bytes;
  quote_signature : bytes;
}

let quote_body ~platform_measurement ~enclave_measurement ~user_data =
  Bytes.concat Bytes.empty
    [ Bytes.of_string "HTQUOTE1"; platform_measurement; enclave_measurement;
      Hypertee_crypto.Sha256.digest user_data ]

let platform_certificate keys ~platform_measurement =
  Keymgmt.sign_with_ek keys platform_measurement

(* The certificate is a deterministic EK signature over a measurement
   fixed at boot, so every quote of a boot carries the same bytes:
   only the quote body needs a fresh (AK) signature. *)
let make_quote keys ~platform_measurement ~platform_certificate ~enclave_measurement ~user_data =
  let body = quote_body ~platform_measurement ~enclave_measurement ~user_data in
  let quote_signature = Keymgmt.sign_with_ak keys body in
  {
    platform_measurement;
    enclave_measurement;
    user_data;
    platform_signature = platform_certificate;
    quote_signature;
  }

(* Both signatures on every call: the construction [make_quote] must
   reproduce byte for byte. *)
let make_quote_reference keys ~platform_measurement ~enclave_measurement ~user_data =
  let platform_signature = Keymgmt.sign_with_ek keys platform_measurement in
  let body = quote_body ~platform_measurement ~enclave_measurement ~user_data in
  let quote_signature = Keymgmt.sign_with_ak keys body in
  { platform_measurement; enclave_measurement; user_data; platform_signature; quote_signature }

(* Wire format: u16 lengths then fields, in fixed order. *)
let put_field buf b =
  let len = Bytes.length b in
  Buffer.add_char buf (Char.chr (len lsr 8));
  Buffer.add_char buf (Char.chr (len land 0xFF));
  Buffer.add_bytes buf b

let quote_to_bytes q =
  let buf = Buffer.create 256 in
  put_field buf q.platform_measurement;
  put_field buf q.enclave_measurement;
  put_field buf q.user_data;
  put_field buf q.platform_signature;
  put_field buf q.quote_signature;
  Buffer.to_bytes buf

let quote_of_bytes b =
  let pos = ref 0 in
  let take () =
    if !pos + 2 > Bytes.length b then None
    else begin
      let len = (Char.code (Bytes.get b !pos) lsl 8) lor Char.code (Bytes.get b (!pos + 1)) in
      pos := !pos + 2;
      if !pos + len > Bytes.length b then None
      else begin
        let field = Bytes.sub b !pos len in
        pos := !pos + len;
        Some field
      end
    end
  in
  match (take (), take (), take (), take (), take ()) with
  | Some pm, Some em, Some ud, Some ps, Some qs when !pos = Bytes.length b ->
    Some
      {
        platform_measurement = pm;
        enclave_measurement = em;
        user_data = ud;
        platform_signature = ps;
        quote_signature = qs;
      }
  | _ -> None

let verify_quote ~ek ~ak q =
  Hypertee_crypto.Rsa.verify ek ~msg:q.platform_measurement ~signature:q.platform_signature
  && Hypertee_crypto.Rsa.verify ak
       ~msg:
         (quote_body ~platform_measurement:q.platform_measurement
            ~enclave_measurement:q.enclave_measurement ~user_data:q.user_data)
       ~signature:q.quote_signature

type report = { verifier_measurement : bytes; challenger_measurement : bytes; mac : bytes }

let report_body r = Bytes.cat r.verifier_measurement r.challenger_measurement

let make_report keys ~verifier_measurement ~challenger_measurement =
  let key = Keymgmt.report_key keys ~challenger_measurement in
  let r = { verifier_measurement; challenger_measurement; mac = Bytes.empty } in
  { r with mac = Hypertee_crypto.Hmac.hmac ~key (report_body r) }

let verify_report keys r =
  let key = Keymgmt.report_key keys ~challenger_measurement:r.challenger_measurement in
  Hypertee_util.Bytes_ext.equal_ct r.mac (Hypertee_crypto.Hmac.hmac ~key (report_body r))

(* Sealing blob: nonce(16) || ciphertext || hmac(32) over nonce+ct. *)
let seal keys ~enclave_measurement data =
  let key = Keymgmt.sealing_key keys ~enclave_measurement in
  let aes = Hypertee_crypto.Aes.expand key in
  (* Deterministic nonce per (key, data) is unacceptable; derive from
     the data hash and a counter-free random-ish salt via the key.
     A simulated platform has no hardware entropy source here, so use
     the HMAC of the data as the nonce (SIV-style, misuse resistant). *)
  let nonce = Bytes.sub (Hypertee_crypto.Hmac.hmac ~key data) 0 16 in
  let ct = Hypertee_crypto.Aes.ctr aes ~nonce data in
  let mac_key = Hypertee_crypto.Hmac.derive ~ikm:key ~salt:Bytes.empty ~info:"seal-mac" 16 in
  let tag = Hypertee_crypto.Hmac.hmac ~key:mac_key (Bytes.cat nonce ct) in
  Bytes.concat Bytes.empty [ nonce; ct; tag ]

let unseal keys ~enclave_measurement blob =
  if Bytes.length blob < 48 then None
  else begin
    let key = Keymgmt.sealing_key keys ~enclave_measurement in
    let aes = Hypertee_crypto.Aes.expand key in
    let nonce = Bytes.sub blob 0 16 in
    let ct = Bytes.sub blob 16 (Bytes.length blob - 48) in
    let tag = Bytes.sub blob (Bytes.length blob - 32) 32 in
    let mac_key = Hypertee_crypto.Hmac.derive ~ikm:key ~salt:Bytes.empty ~info:"seal-mac" 16 in
    if Hypertee_util.Bytes_ext.equal_ct tag (Hypertee_crypto.Hmac.hmac ~key:mac_key (Bytes.cat nonce ct))
    then Some (Hypertee_crypto.Aes.ctr aes ~nonce ct)
    else None
  end
