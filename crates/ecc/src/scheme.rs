//! The [`EccScheme`] trait: a uniform interface over every word-protection
//! code in this crate, as seen by the memory simulator.
//!
//! A scheme encodes a 32-bit data word into a codeword of
//! `32 + check_bits()` stored bits; fault injection flips arbitrary stored
//! bits (data or check); `decode` classifies the read as clean, corrected,
//! detected-uncorrectable, or — for weak codes — silently wrong.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::bitbuf::BitBuf;

/// Result of decoding a (possibly corrupted) stored codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// No error detected.
    Clean {
        /// The stored data word.
        data: u32,
    },
    /// Errors were detected and corrected in-place.
    Corrected {
        /// The recovered data word.
        data: u32,
        /// Number of stored bits the decoder flipped back.
        bits_corrected: u32,
    },
    /// An error was detected but exceeds the code's correction capability.
    DetectedUncorrectable,
}

impl Decoded {
    /// The recovered data word, if the decode did not fail.
    #[must_use]
    pub fn data(&self) -> Option<u32> {
        match *self {
            Decoded::Clean { data } | Decoded::Corrected { data, .. } => Some(data),
            Decoded::DetectedUncorrectable => None,
        }
    }

    /// Whether the decoder flagged an (uncorrectable) error.
    #[must_use]
    pub fn is_failure(&self) -> bool {
        matches!(self, Decoded::DetectedUncorrectable)
    }
}

/// A word-level error-protection code.
///
/// Implementations are deterministic and stateless, so a single instance can
/// be shared by every word of a memory array — exactly like the single ECC
/// encoder/decoder block shared by an SRAM macro.
///
/// # Examples
///
/// ```
/// use chunkpoint_ecc::{EccScheme, SecdedCode, Decoded};
///
/// let code = SecdedCode::new();
/// let mut stored = code.encode(0xCAFE_F00D);
/// stored.flip(7); // a single-event upset
/// match code.decode(&stored) {
///     Decoded::Corrected { data, bits_corrected } => {
///         assert_eq!(data, 0xCAFE_F00D);
///         assert_eq!(bits_corrected, 1);
///     }
///     other => panic!("SECDED must correct one bit, got {other:?}"),
/// }
/// ```
pub trait EccScheme: std::fmt::Debug + Send + Sync {
    /// Human-readable code name (e.g. `"BCH(t=4, m=6)"`).
    ///
    /// Implementations with parameterised names cache the string at
    /// construction, so calling this on a hot path never allocates.
    fn name(&self) -> &str;

    /// Number of payload bits per word (always 32 in this crate).
    fn data_bits(&self) -> usize {
        32
    }

    /// Number of redundant check bits stored alongside the payload.
    fn check_bits(&self) -> usize;

    /// Total stored bits per word.
    fn total_bits(&self) -> usize {
        self.data_bits() + self.check_bits()
    }

    /// Guaranteed random-error correction capability t (bits per word).
    fn correctable_bits(&self) -> usize;

    /// Guaranteed random-error detection capability (bits per word).
    fn detectable_bits(&self) -> usize;

    /// Encodes a data word into its stored codeword.
    fn encode(&self, data: u32) -> BitBuf;

    /// Decodes a stored codeword, correcting errors when possible.
    ///
    /// Errors beyond [`EccScheme::detectable_bits`] may be mis-decoded
    /// silently; that is inherent to any code and is part of what the
    /// simulator measures.
    fn decode(&self, stored: &BitBuf) -> Decoded;

    /// Encodes a batch of data words into `out`, one codeword per word.
    ///
    /// The default forwards to [`EccScheme::encode`] per word; callers on
    /// hot paths (the SRAM array, the L1′ checkpoint buffer) use this
    /// entry point so dynamic dispatch is paid once per block instead of
    /// once per word, and so codecs with heavyweight lookup tables keep
    /// them hot across the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `data` and `out` lengths differ.
    fn encode_block(&self, data: &[u32], out: &mut [BitBuf]) {
        assert_eq!(
            data.len(),
            out.len(),
            "encode_block length mismatch for {}",
            self.name()
        );
        for (&word, slot) in data.iter().zip(out.iter_mut()) {
            *slot = self.encode(word);
        }
    }

    /// Decodes a batch of stored codewords into `out`.
    ///
    /// Semantically identical to mapping [`EccScheme::decode`] over
    /// `stored`; see [`EccScheme::encode_block`] for why a batch entry
    /// point exists.
    ///
    /// # Panics
    ///
    /// Panics if `stored` and `out` lengths differ.
    fn decode_block(&self, stored: &[BitBuf], out: &mut [Decoded]) {
        assert_eq!(
            stored.len(),
            out.len(),
            "decode_block length mismatch for {}",
            self.name()
        );
        for (word, slot) in stored.iter().zip(out.iter_mut()) {
            *slot = self.decode(word);
        }
    }
}

/// Configuration-level identification of a protection scheme.
///
/// This is what system-level code stores in platform descriptions; it is
/// turned into a live codec with [`build_scheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccKind {
    /// No protection: reads return stored bits verbatim.
    None,
    /// Single even-parity bit: detects 1, corrects 0.
    Parity,
    /// `ways` interleaved parity bits: detects any adjacent burst up to
    /// `ways` bits, corrects 0 — the minimal SMU-sound detector.
    InterleavedParity {
        /// Number of interleaved parity ways.
        ways: u8,
    },
    /// Hamming SECDED(39,32): corrects 1, detects 2.
    Secded,
    /// 4×8 two-dimensional parity product code: corrects 1, detects any
    /// adjacent burst up to 8 bits (the paper's cited "2D coding", ref. 7).
    TwoDimParity,
    /// `ways`-way interleaved SECDED: corrects any `ways`-bit adjacent burst.
    InterleavedSecded {
        /// Number of interleaved SECDED sub-codes.
        ways: u8,
    },
    /// Binary BCH with `t`-bit random error correction over the smallest
    /// adequate field.
    Bch {
        /// Correction strength in bits per word.
        t: u8,
    },
}

impl EccKind {
    /// All kinds exercised by the design-space exploration, strongest last.
    #[must_use]
    pub fn catalog() -> Vec<EccKind> {
        let mut kinds = vec![
            EccKind::None,
            EccKind::Parity,
            EccKind::Secded,
            EccKind::TwoDimParity,
        ];
        for ways in [2u8, 4, 6, 8] {
            kinds.push(EccKind::InterleavedParity { ways });
        }
        for ways in [2u8, 4] {
            kinds.push(EccKind::InterleavedSecded { ways });
        }
        for t in 1..=18u8 {
            kinds.push(EccKind::Bch { t });
        }
        kinds
    }
}

impl std::fmt::Display for EccKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EccKind::None => write!(f, "none"),
            EccKind::Parity => write!(f, "parity"),
            EccKind::InterleavedParity { ways } => write!(f, "parity-x{ways}"),
            EccKind::Secded => write!(f, "secded"),
            EccKind::TwoDimParity => write!(f, "2d-parity"),
            EccKind::InterleavedSecded { ways } => write!(f, "secded-x{ways}"),
            EccKind::Bch { t } => write!(f, "bch-t{t}"),
        }
    }
}

/// Error returned when a scheme cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildSchemeError {
    message: String,
}

impl BuildSchemeError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for BuildSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot build ecc scheme: {}", self.message)
    }
}

impl std::error::Error for BuildSchemeError {}

/// Process-wide table of live codecs, one per successfully built kind.
type CodecTable = Mutex<HashMap<EccKind, Arc<dyn EccScheme>>>;

/// Returns the shared live codec for `kind`.
///
/// Codecs are immutable and stateless (see [`EccScheme`]), so the first
/// call for a kind builds it — BCH syndrome and remainder tables cost
/// tens of microseconds — and every later call, from any thread, returns
/// a clone of the same [`Arc`]. The table holds at most one entry per
/// valid kind, so it is bounded by the size of [`EccKind::catalog`] plus
/// whatever other valid parameters callers ask for. Construction errors
/// are returned to the caller and never cached: an invalid kind fails
/// the same way on every call.
///
/// # Errors
///
/// Returns [`BuildSchemeError`] for invalid parameters (e.g. a BCH strength
/// beyond t = 18, or an interleave factor that does not divide 32).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use chunkpoint_ecc::{build_scheme, EccKind};
///
/// let code = build_scheme(EccKind::Bch { t: 4 })?;
/// assert!(code.check_bits() > 0);
/// assert_eq!(code.correctable_bits(), 4);
/// // The same kind is one shared codec.
/// assert!(Arc::ptr_eq(&code, &build_scheme(EccKind::Bch { t: 4 })?));
/// # Ok::<(), chunkpoint_ecc::BuildSchemeError>(())
/// ```
pub fn build_scheme(kind: EccKind) -> Result<Arc<dyn EccScheme>, BuildSchemeError> {
    static CODECS: OnceLock<CodecTable> = OnceLock::new();
    // A panic while building leaves the table itself consistent (the
    // entry is only inserted on success), so a poisoned lock is usable.
    let mut table = CODECS
        .get_or_init(CodecTable::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(codec) = table.get(&kind) {
        return Ok(Arc::clone(codec));
    }
    let codec: Arc<dyn EccScheme> = match kind {
        EccKind::None => Arc::new(crate::parity::NoCode::new()),
        EccKind::Parity => Arc::new(crate::parity::ParityCode::new()),
        EccKind::InterleavedParity { ways } => {
            Arc::new(crate::parity::InterleavedParity::new(ways as usize)?)
        }
        EccKind::Secded => Arc::new(crate::secded::SecdedCode::new()),
        EccKind::TwoDimParity => Arc::new(crate::twodim::TwoDimParity::new()),
        EccKind::InterleavedSecded { ways } => {
            Arc::new(crate::interleaved::InterleavedSecded::new(ways as usize)?)
        }
        EccKind::Bch { t } => Arc::new(crate::bch::BchCode::for_word(t as usize)?),
    };
    table.insert(kind, Arc::clone(&codec));
    Ok(codec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoded_data_accessor() {
        assert_eq!(Decoded::Clean { data: 7 }.data(), Some(7));
        assert_eq!(
            Decoded::Corrected {
                data: 7,
                bits_corrected: 2
            }
            .data(),
            Some(7)
        );
        assert_eq!(Decoded::DetectedUncorrectable.data(), None);
        assert!(Decoded::DetectedUncorrectable.is_failure());
        assert!(!Decoded::Clean { data: 0 }.is_failure());
    }

    #[test]
    fn catalog_contains_all_families() {
        let kinds = EccKind::catalog();
        assert!(kinds.contains(&EccKind::None));
        assert!(kinds.contains(&EccKind::Parity));
        assert!(kinds.contains(&EccKind::Secded));
        assert!(kinds.contains(&EccKind::Bch { t: 18 }));
        assert_eq!(
            kinds
                .iter()
                .filter(|k| matches!(k, EccKind::Bch { .. }))
                .count(),
            18
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(EccKind::None.to_string(), "none");
        assert_eq!(EccKind::Bch { t: 3 }.to_string(), "bch-t3");
        assert_eq!(
            EccKind::InterleavedSecded { ways: 4 }.to_string(),
            "secded-x4"
        );
    }

    #[test]
    fn build_every_catalog_entry() {
        for kind in EccKind::catalog() {
            let scheme = build_scheme(kind).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(scheme.data_bits(), 32, "{kind}");
            // Every scheme round-trips a clean word.
            let word = scheme.encode(0x1234_5678);
            assert_eq!(
                scheme.decode(&word),
                Decoded::Clean { data: 0x1234_5678 },
                "{kind}"
            );
        }
    }

    #[test]
    fn build_rejects_bad_parameters() {
        assert!(build_scheme(EccKind::Bch { t: 0 }).is_err());
        assert!(build_scheme(EccKind::Bch { t: 40 }).is_err());
        assert!(build_scheme(EccKind::InterleavedSecded { ways: 3 }).is_err());
    }

    #[test]
    fn build_shares_one_codec_per_kind_across_threads() {
        for kind in [EccKind::Bch { t: 8 }, EccKind::Secded, EccKind::None] {
            // All eight threads race into the table at once.
            let start = std::sync::Barrier::new(8);
            let codecs: Vec<Arc<dyn EccScheme>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            build_scheme(kind).expect("valid kind")
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("builder thread"))
                    .collect()
            });
            for codec in &codecs[1..] {
                assert!(Arc::ptr_eq(&codecs[0], codec), "{kind}");
            }
        }
    }

    #[test]
    fn build_errors_are_never_cached() {
        for kind in [
            EccKind::Bch { t: 19 },
            EccKind::InterleavedSecded { ways: 3 },
        ] {
            let first = build_scheme(kind).expect_err("invalid kind");
            for _ in 0..4 {
                assert_eq!(build_scheme(kind).expect_err("still invalid"), first);
            }
        }
    }
}
