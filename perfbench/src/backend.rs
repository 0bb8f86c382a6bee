//! The two backends the benchmark drives: the real RNS-CKKS scheme, and
//! the exact plaintext simulator the harness self-test runs on.

use chet_ckks::rns::{wire, RnsCiphertext, RnsCkks, RnsEvaluator};
use chet_ckks::sim::{SimCkks, SimCt};
use chet_compiler::CompiledCircuit;
use chet_hisa::Hisa;

/// A scheme split into the paper's Figure 3 roles: the client holds the
/// secret key, the server evaluates with public material only, and
/// ciphertexts cross between them through a wire codec.
pub trait Backend: 'static {
    type Ct: Clone + Send + Sync;
    /// Secret-key holder (keygen, encrypt, decrypt). A serving worker also
    /// runs on this type: the service encrypts and decrypts in-process.
    type Client: Hisa<Ct = Self::Ct> + 'static;
    /// Public-material evaluator.
    type Server: Hisa<Ct = Self::Ct>;
    /// One ciphertext as it travels.
    type Wire;

    fn keygen(compiled: &CompiledCircuit, seed: u64) -> Self::Client;
    fn server(client: &mut Self::Client) -> Self::Server;
    fn to_wire(ct: &Self::Ct) -> Self::Wire;
    fn from_wire(w: &Self::Wire) -> Result<Self::Ct, String>;
    /// Bytes one ciphertext occupies on the wire.
    fn wire_len(w: &Self::Wire) -> usize;
    /// Limb-pool `(hits, misses)` so far.
    fn pool_stats() -> (u64, u64);
}

pub struct Rns;

impl Backend for Rns {
    type Ct = RnsCiphertext;
    type Client = RnsCkks;
    type Server = RnsEvaluator;
    type Wire = bytes::Bytes;

    fn keygen(compiled: &CompiledCircuit, seed: u64) -> RnsCkks {
        RnsCkks::new(&compiled.params, &compiled.rotation_keys, seed)
    }
    fn server(client: &mut RnsCkks) -> RnsEvaluator {
        client.evaluator()
    }
    fn to_wire(ct: &RnsCiphertext) -> bytes::Bytes {
        wire::encode_ciphertext(ct)
    }
    fn from_wire(w: &bytes::Bytes) -> Result<RnsCiphertext, String> {
        wire::decode_ciphertext(w).map_err(|e| e.to_string())
    }
    fn wire_len(w: &bytes::Bytes) -> usize {
        w.len()
    }
    fn pool_stats() -> (u64, u64) {
        chet_ckks::rns::pool::stats()
    }
}

/// The noise-free simulator. It has no role split and no wire codec: the
/// server is a second simulator instance and a ciphertext crosses the
/// wire as a clone of zero bytes.
pub struct Sim;

impl Backend for Sim {
    type Ct = SimCt;
    type Client = SimCkks;
    type Server = SimCkks;
    type Wire = SimCt;

    fn keygen(compiled: &CompiledCircuit, seed: u64) -> SimCkks {
        SimCkks::new(&compiled.params, &compiled.rotation_keys, seed).without_noise()
    }
    fn server(client: &mut SimCkks) -> SimCkks {
        client.fork().expect("the simulator always forks")
    }
    fn to_wire(ct: &SimCt) -> SimCt {
        ct.clone()
    }
    fn from_wire(w: &SimCt) -> Result<SimCt, String> {
        Ok(w.clone())
    }
    fn wire_len(_: &SimCt) -> usize {
        0
    }
    fn pool_stats() -> (u64, u64) {
        (0, 0)
    }
}
