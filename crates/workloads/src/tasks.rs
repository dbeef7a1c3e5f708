//! [`StreamingTask`] implementations wrapping each codec — the five
//! MediaBench-equivalent benchmarks of the paper's Table I / Fig. 5, plus
//! the wideband G.722 sub-band pair used by timeline scenarios.
//!
//! Every task follows the same restartable pattern (see [`crate::stream`]):
//! per block it DMAs its input window into L1, loads state + input through
//! checked bus reads, computes, and stores the output chunk + new state.
//! ROM-resident constants (codec tables, parsed JPEG headers) stay on the
//! Rust side: instruction/constant memory is not the vulnerable SRAM the
//! paper protects.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use chunkpoint_sim::{MemoryBus, Region};

use crate::adpcm::{self, AdpcmState};
use crate::g722::{self, G722State};
use crate::g726::{self, G726State};
use crate::input::{speech_pcm, test_image};
use crate::jpeg::{self, EntropyState, JpegDecoder};
use crate::stream::{
    pack_bytes, pack_i16, read_region, unpack_bytes, unpack_i16, write_region, write_region_at,
    StreamingTask, TaskError, TaskProfile,
};

/// Per-sample cycle estimate for IMA ADPCM (table lookups + few ALU ops).
const ADPCM_CYCLES_PER_SAMPLE: u64 = 45;
/// Per-sample cycle estimate for G.726 (predictor + quantizer + update).
const G726_CYCLES_PER_SAMPLE: u64 = 180;
/// Per-sample cycle estimate for G.722 (12 QMF MACs + one band update).
const G722_CYCLES_PER_SAMPLE: u64 = 110;
/// Per-8×8-block cycle estimate for JPEG decode (Huffman + IDCT).
const JPEG_CYCLES_PER_BLOCK: u64 = 2816;
/// Worst-case entropy bytes per 8×8 block used to size refill windows.
const JPEG_WINDOW_BYTES_PER_BLOCK: usize = 256;

fn layout(state_words: u32, input_words: u32, output_words: u32) -> (Region, Region, Region) {
    let state = Region {
        base: 0,
        words: state_words,
    };
    let input = Region {
        base: state.end(),
        words: input_words,
    };
    let output = Region {
        base: input.end(),
        words: output_words,
    };
    (state, input, output)
}

fn read_words(bus: &mut dyn MemoryBus, region: Region, n: usize) -> Result<Vec<u32>, TaskError> {
    debug_assert!(n <= region.words as usize);
    (0..n as u32)
        .map(|i| bus.load(region.word(i)).map_err(TaskError::from))
        .collect()
}

// ---------------------------------------------------------------------------
// IMA ADPCM encode / decode
// ---------------------------------------------------------------------------

/// MediaBench `rawcaudio`: IMA ADPCM encoder over PCM input.
#[derive(Debug, Clone)]
pub struct AdpcmEncodeTask {
    samples: Vec<i16>,
    chunk_words: u32,
    regions: (Region, Region, Region),
}

impl AdpcmEncodeTask {
    /// Creates the task over `samples`, producing `chunk_words` words of
    /// codes per block.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or `samples` is empty.
    #[must_use]
    pub fn new(samples: Vec<i16>, chunk_words: u32) -> Self {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(!samples.is_empty(), "empty input");
        // One output word = 8 samples (4-bit codes).
        let spb = chunk_words * 8;
        let input_words = spb.div_ceil(2);
        let blocks = samples.len().div_ceil(spb as usize) as u32;
        Self {
            samples,
            chunk_words,
            regions: layout(2, input_words, chunk_words * blocks),
        }
    }

    fn samples_per_block(&self) -> usize {
        self.chunk_words as usize * 8
    }
}

impl StreamingTask for AdpcmEncodeTask {
    fn name(&self) -> String {
        "adpcm-encode".to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.samples.len().div_ceil(self.samples_per_block())
    }

    fn profile(&self) -> TaskProfile {
        let spb = self.samples_per_block() as u64;
        TaskProfile {
            total_blocks: self.total_blocks(),
            block_words: self.chunk_words,
            state_words: 2,
            compute_cycles_per_block: ADPCM_CYCLES_PER_SAMPLE * spb,
            accesses_per_block: u64::from(self.regions.1.words) * 2
                + u64::from(self.chunk_words)
                + 4,
        }
    }

    fn state_region(&self) -> Region {
        self.regions.0
    }

    fn output_region(&self) -> Region {
        self.regions.2
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        write_region(bus, self.regions.0, &AdpcmState::new().to_words());
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        let spb = self.samples_per_block();
        let start = block * spb;
        if start >= self.samples.len() {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let slice = &self.samples[start..(start + spb).min(self.samples.len())];
        // DMA the input window in, then read it back through checked loads.
        let in_words = pack_i16(slice);
        write_region(bus, self.regions.1, &in_words);
        let state_words = read_region(bus, self.regions.0)?;
        let mut state = AdpcmState::from_words([state_words[0], state_words[1]]);
        let raw = read_words(bus, self.regions.1, in_words.len())?;
        let samples = unpack_i16(&raw, slice.len());
        bus.tick(ADPCM_CYCLES_PER_SAMPLE * samples.len() as u64);
        let mut bytes = Vec::with_capacity(samples.len().div_ceil(2));
        for pair in samples.chunks(2) {
            let lo = adpcm::encode_sample(&mut state, pair[0]);
            let hi = pair
                .get(1)
                .map_or(0, |&s| adpcm::encode_sample(&mut state, s));
            bytes.push(lo | (hi << 4));
        }
        let out_words = pack_bytes(&bytes);
        write_region_at(
            bus,
            self.regions.2,
            block as u32 * self.chunk_words,
            &out_words,
        );
        write_region(bus, self.regions.0, &state.to_words());
        Ok(out_words.len() as u32)
    }
}

/// MediaBench `rawdaudio`: IMA ADPCM decoder over a code stream.
#[derive(Debug, Clone)]
pub struct AdpcmDecodeTask {
    codes: Vec<u8>,
    total_samples: usize,
    chunk_words: u32,
    regions: (Region, Region, Region),
}

impl AdpcmDecodeTask {
    /// Creates the task over packed `codes` decoding `total_samples`
    /// samples, producing `chunk_words` words of PCM per block.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or the code stream is too short.
    #[must_use]
    pub fn new(codes: Vec<u8>, total_samples: usize, chunk_words: u32) -> Self {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(
            codes.len() * 2 >= total_samples,
            "code stream shorter than sample count"
        );
        // One output word = 2 samples; block input = spb codes = spb/2 bytes.
        let spb = chunk_words * 2;
        let input_words = (spb / 2).div_ceil(4).max(1);
        let blocks = total_samples.div_ceil(spb as usize) as u32;
        Self {
            codes,
            total_samples,
            chunk_words,
            regions: layout(2, input_words, chunk_words * blocks),
        }
    }

    fn samples_per_block(&self) -> usize {
        self.chunk_words as usize * 2
    }
}

impl StreamingTask for AdpcmDecodeTask {
    fn name(&self) -> String {
        "adpcm-decode".to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.total_samples.div_ceil(self.samples_per_block())
    }

    fn profile(&self) -> TaskProfile {
        let spb = self.samples_per_block() as u64;
        TaskProfile {
            total_blocks: self.total_blocks(),
            block_words: self.chunk_words,
            state_words: 2,
            compute_cycles_per_block: ADPCM_CYCLES_PER_SAMPLE * spb,
            accesses_per_block: u64::from(self.regions.1.words) * 2
                + u64::from(self.chunk_words)
                + 4,
        }
    }

    fn state_region(&self) -> Region {
        self.regions.0
    }

    fn output_region(&self) -> Region {
        self.regions.2
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        write_region(bus, self.regions.0, &AdpcmState::new().to_words());
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        let spb = self.samples_per_block();
        let start_sample = block * spb;
        if start_sample >= self.total_samples {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let n_samples = spb.min(self.total_samples - start_sample);
        let start_byte = start_sample / 2;
        let n_bytes = n_samples.div_ceil(2);
        let window = &self.codes[start_byte..(start_byte + n_bytes).min(self.codes.len())];
        let in_words = pack_bytes(window);
        write_region(bus, self.regions.1, &in_words);
        let state_words = read_region(bus, self.regions.0)?;
        let mut state = AdpcmState::from_words([state_words[0], state_words[1]]);
        let raw = read_words(bus, self.regions.1, in_words.len())?;
        let bytes = unpack_bytes(&raw, window.len());
        bus.tick(ADPCM_CYCLES_PER_SAMPLE * n_samples as u64);
        let mut samples = Vec::with_capacity(n_samples);
        'outer: for &byte in &bytes {
            for nibble in [byte & 0x0F, byte >> 4] {
                samples.push(adpcm::decode_sample(&mut state, nibble));
                if samples.len() == n_samples {
                    break 'outer;
                }
            }
        }
        let out_words = pack_i16(&samples);
        write_region_at(
            bus,
            self.regions.2,
            block as u32 * self.chunk_words,
            &out_words,
        );
        write_region(bus, self.regions.0, &state.to_words());
        Ok(out_words.len() as u32)
    }
}

// ---------------------------------------------------------------------------
// G.721 (G.726-32) encode / decode
// ---------------------------------------------------------------------------

/// MediaBench `g721 encode`: G.726-32 encoder over PCM input.
#[derive(Debug, Clone)]
pub struct G721EncodeTask {
    samples: Vec<i16>,
    chunk_words: u32,
    regions: (Region, Region, Region),
}

impl G721EncodeTask {
    /// Creates the task; one output word = 8 samples of 4-bit codes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or `samples` is empty.
    #[must_use]
    pub fn new(samples: Vec<i16>, chunk_words: u32) -> Self {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(!samples.is_empty(), "empty input");
        let spb = chunk_words * 8;
        let input_words = spb.div_ceil(2);
        let blocks = samples.len().div_ceil(spb as usize) as u32;
        Self {
            samples,
            chunk_words,
            regions: layout(G726State::WORDS as u32, input_words, chunk_words * blocks),
        }
    }

    fn samples_per_block(&self) -> usize {
        self.chunk_words as usize * 8
    }
}

impl StreamingTask for G721EncodeTask {
    fn name(&self) -> String {
        "g721-encode".to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.samples.len().div_ceil(self.samples_per_block())
    }

    fn profile(&self) -> TaskProfile {
        let spb = self.samples_per_block() as u64;
        TaskProfile {
            total_blocks: self.total_blocks(),
            block_words: self.chunk_words,
            state_words: G726State::WORDS as u32,
            compute_cycles_per_block: G726_CYCLES_PER_SAMPLE * spb,
            accesses_per_block: u64::from(self.regions.1.words) * 2
                + u64::from(self.chunk_words)
                + 2 * G726State::WORDS as u64,
        }
    }

    fn state_region(&self) -> Region {
        self.regions.0
    }

    fn output_region(&self) -> Region {
        self.regions.2
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        write_region(bus, self.regions.0, &G726State::new().to_words());
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        let spb = self.samples_per_block();
        let start = block * spb;
        if start >= self.samples.len() {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let slice = &self.samples[start..(start + spb).min(self.samples.len())];
        let in_words = pack_i16(slice);
        write_region(bus, self.regions.1, &in_words);
        let state_words = read_region(bus, self.regions.0)?;
        let mut array = [0u32; G726State::WORDS];
        array.copy_from_slice(&state_words);
        let mut state = G726State::from_words(&array);
        let raw = read_words(bus, self.regions.1, in_words.len())?;
        let samples = unpack_i16(&raw, slice.len());
        bus.tick(G726_CYCLES_PER_SAMPLE * samples.len() as u64);
        let mut bytes = Vec::with_capacity(samples.len().div_ceil(2));
        for pair in samples.chunks(2) {
            let lo = g726::encode_sample(&mut state, pair[0]);
            let hi = pair
                .get(1)
                .map_or(0, |&s| g726::encode_sample(&mut state, s));
            bytes.push(lo | (hi << 4));
        }
        let out_words = pack_bytes(&bytes);
        write_region_at(
            bus,
            self.regions.2,
            block as u32 * self.chunk_words,
            &out_words,
        );
        write_region(bus, self.regions.0, &state.to_words());
        Ok(out_words.len() as u32)
    }
}

/// MediaBench `g721 decode`: G.726-32 decoder over a code stream.
#[derive(Debug, Clone)]
pub struct G721DecodeTask {
    codes: Vec<u8>,
    total_samples: usize,
    chunk_words: u32,
    regions: (Region, Region, Region),
}

impl G721DecodeTask {
    /// Creates the task; one output word = 2 decoded PCM samples.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or the code stream is too short.
    #[must_use]
    pub fn new(codes: Vec<u8>, total_samples: usize, chunk_words: u32) -> Self {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(
            codes.len() * 2 >= total_samples,
            "code stream shorter than sample count"
        );
        let spb = chunk_words * 2;
        let input_words = (spb / 2).div_ceil(4).max(1);
        let blocks = total_samples.div_ceil(spb as usize) as u32;
        Self {
            codes,
            total_samples,
            chunk_words,
            regions: layout(G726State::WORDS as u32, input_words, chunk_words * blocks),
        }
    }

    fn samples_per_block(&self) -> usize {
        self.chunk_words as usize * 2
    }
}

impl StreamingTask for G721DecodeTask {
    fn name(&self) -> String {
        "g721-decode".to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.total_samples.div_ceil(self.samples_per_block())
    }

    fn profile(&self) -> TaskProfile {
        let spb = self.samples_per_block() as u64;
        TaskProfile {
            total_blocks: self.total_blocks(),
            block_words: self.chunk_words,
            state_words: G726State::WORDS as u32,
            compute_cycles_per_block: G726_CYCLES_PER_SAMPLE * spb,
            accesses_per_block: u64::from(self.regions.1.words) * 2
                + u64::from(self.chunk_words)
                + 2 * G726State::WORDS as u64,
        }
    }

    fn state_region(&self) -> Region {
        self.regions.0
    }

    fn output_region(&self) -> Region {
        self.regions.2
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        write_region(bus, self.regions.0, &G726State::new().to_words());
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        let spb = self.samples_per_block();
        let start_sample = block * spb;
        if start_sample >= self.total_samples {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let n_samples = spb.min(self.total_samples - start_sample);
        let start_byte = start_sample / 2;
        let n_bytes = n_samples.div_ceil(2);
        let window = &self.codes[start_byte..(start_byte + n_bytes).min(self.codes.len())];
        let in_words = pack_bytes(window);
        write_region(bus, self.regions.1, &in_words);
        let state_words = read_region(bus, self.regions.0)?;
        let mut array = [0u32; G726State::WORDS];
        array.copy_from_slice(&state_words);
        let mut state = G726State::from_words(&array);
        let raw = read_words(bus, self.regions.1, in_words.len())?;
        let bytes = unpack_bytes(&raw, window.len());
        bus.tick(G726_CYCLES_PER_SAMPLE * n_samples as u64);
        let mut samples = Vec::with_capacity(n_samples);
        'outer: for &byte in &bytes {
            for nibble in [byte & 0x0F, byte >> 4] {
                samples.push(g726::decode_sample(&mut state, nibble));
                if samples.len() == n_samples {
                    break 'outer;
                }
            }
        }
        let out_words = pack_i16(&samples);
        write_region_at(
            bus,
            self.regions.2,
            block as u32 * self.chunk_words,
            &out_words,
        );
        write_region(bus, self.regions.0, &state.to_words());
        Ok(out_words.len() as u32)
    }
}

// ---------------------------------------------------------------------------
// G.722 sub-band encode / decode
// ---------------------------------------------------------------------------

/// Wideband G.722-style sub-band encoder over PCM input.
#[derive(Debug, Clone)]
pub struct G722EncodeTask {
    samples: Vec<i16>,
    chunk_words: u32,
    regions: (Region, Region, Region),
}

impl G722EncodeTask {
    /// Creates the task; one output word = 8 samples (4 code bytes, one
    /// per sample pair).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or `samples` is empty.
    #[must_use]
    pub fn new(samples: Vec<i16>, chunk_words: u32) -> Self {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(!samples.is_empty(), "empty input");
        let spb = chunk_words * 8;
        let input_words = spb.div_ceil(2);
        let blocks = samples.len().div_ceil(spb as usize) as u32;
        Self {
            samples,
            chunk_words,
            regions: layout(G722State::WORDS as u32, input_words, chunk_words * blocks),
        }
    }

    fn samples_per_block(&self) -> usize {
        self.chunk_words as usize * 8
    }
}

impl StreamingTask for G722EncodeTask {
    fn name(&self) -> String {
        "g722-encode".to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.samples.len().div_ceil(self.samples_per_block())
    }

    fn profile(&self) -> TaskProfile {
        let spb = self.samples_per_block() as u64;
        TaskProfile {
            total_blocks: self.total_blocks(),
            block_words: self.chunk_words,
            state_words: G722State::WORDS as u32,
            compute_cycles_per_block: G722_CYCLES_PER_SAMPLE * spb,
            accesses_per_block: u64::from(self.regions.1.words) * 2
                + u64::from(self.chunk_words)
                + 2 * G722State::WORDS as u64,
        }
    }

    fn state_region(&self) -> Region {
        self.regions.0
    }

    fn output_region(&self) -> Region {
        self.regions.2
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        write_region(bus, self.regions.0, &G722State::new().to_words());
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        let spb = self.samples_per_block();
        let start = block * spb;
        if start >= self.samples.len() {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let slice = &self.samples[start..(start + spb).min(self.samples.len())];
        let in_words = pack_i16(slice);
        write_region(bus, self.regions.1, &in_words);
        let state_words = read_region(bus, self.regions.0)?;
        let mut array = [0u32; G722State::WORDS];
        array.copy_from_slice(&state_words);
        let mut state = G722State::from_words(&array);
        let raw = read_words(bus, self.regions.1, in_words.len())?;
        let samples = unpack_i16(&raw, slice.len());
        bus.tick(G722_CYCLES_PER_SAMPLE * samples.len() as u64);
        let mut bytes = Vec::with_capacity(samples.len().div_ceil(2));
        for pair in samples.chunks(2) {
            let x1 = pair.get(1).copied().unwrap_or(0);
            bytes.push(g722::encode_pair(&mut state, pair[0], x1));
        }
        let out_words = pack_bytes(&bytes);
        write_region_at(
            bus,
            self.regions.2,
            block as u32 * self.chunk_words,
            &out_words,
        );
        write_region(bus, self.regions.0, &state.to_words());
        Ok(out_words.len() as u32)
    }
}

/// Wideband G.722-style sub-band decoder over a code stream.
#[derive(Debug, Clone)]
pub struct G722DecodeTask {
    codes: Vec<u8>,
    total_samples: usize,
    chunk_words: u32,
    regions: (Region, Region, Region),
}

impl G722DecodeTask {
    /// Creates the task; one output word = 2 decoded PCM samples (one
    /// code byte).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or the code stream is too short.
    #[must_use]
    pub fn new(codes: Vec<u8>, total_samples: usize, chunk_words: u32) -> Self {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(
            codes.len() * 2 >= total_samples,
            "code stream shorter than sample count"
        );
        let spb = chunk_words * 2;
        let input_words = (spb / 2).div_ceil(4).max(1);
        let blocks = total_samples.div_ceil(spb as usize) as u32;
        Self {
            codes,
            total_samples,
            chunk_words,
            regions: layout(G722State::WORDS as u32, input_words, chunk_words * blocks),
        }
    }

    fn samples_per_block(&self) -> usize {
        self.chunk_words as usize * 2
    }
}

impl StreamingTask for G722DecodeTask {
    fn name(&self) -> String {
        "g722-decode".to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.total_samples.div_ceil(self.samples_per_block())
    }

    fn profile(&self) -> TaskProfile {
        let spb = self.samples_per_block() as u64;
        TaskProfile {
            total_blocks: self.total_blocks(),
            block_words: self.chunk_words,
            state_words: G722State::WORDS as u32,
            compute_cycles_per_block: G722_CYCLES_PER_SAMPLE * spb,
            accesses_per_block: u64::from(self.regions.1.words) * 2
                + u64::from(self.chunk_words)
                + 2 * G722State::WORDS as u64,
        }
    }

    fn state_region(&self) -> Region {
        self.regions.0
    }

    fn output_region(&self) -> Region {
        self.regions.2
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        write_region(bus, self.regions.0, &G722State::new().to_words());
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        let spb = self.samples_per_block();
        let start_sample = block * spb;
        if start_sample >= self.total_samples {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let n_samples = spb.min(self.total_samples - start_sample);
        let start_byte = start_sample / 2;
        let n_bytes = n_samples.div_ceil(2);
        let window = &self.codes[start_byte..(start_byte + n_bytes).min(self.codes.len())];
        let in_words = pack_bytes(window);
        write_region(bus, self.regions.1, &in_words);
        let state_words = read_region(bus, self.regions.0)?;
        let mut array = [0u32; G722State::WORDS];
        array.copy_from_slice(&state_words);
        let mut state = G722State::from_words(&array);
        let raw = read_words(bus, self.regions.1, in_words.len())?;
        let bytes = unpack_bytes(&raw, window.len());
        bus.tick(G722_CYCLES_PER_SAMPLE * n_samples as u64);
        let mut samples = Vec::with_capacity(n_samples);
        'outer: for &byte in &bytes {
            let (x0, x1) = g722::decode_pair(&mut state, byte);
            for sample in [x0, x1] {
                samples.push(sample);
                if samples.len() == n_samples {
                    break 'outer;
                }
            }
        }
        let out_words = pack_i16(&samples);
        write_region_at(
            bus,
            self.regions.2,
            block as u32 * self.chunk_words,
            &out_words,
        );
        write_region(bus, self.regions.0, &state.to_words());
        Ok(out_words.len() as u32)
    }
}

// ---------------------------------------------------------------------------
// JPEG decode
// ---------------------------------------------------------------------------

/// MediaBench `djpeg`: baseline JPEG decoder over a compressed stream.
///
/// The parsed header (quant + Huffman tables) lives on the host side,
/// modelling tables resident in ROM/flash; the entropy-coded data streams
/// through the vulnerable L1.
#[derive(Debug, Clone)]
pub struct JpegDecodeTask {
    bytes: Vec<u8>,
    decoder: JpegDecoder,
    chunk_words: u32,
    regions: (Region, Region, Region),
}

impl JpegDecodeTask {
    /// Creates the task over an encoded stream; `chunk_words` must hold at
    /// least one 8×8 block (16 words).
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::Malformed`] when the stream does not parse.
    pub fn new(bytes: Vec<u8>, chunk_words: u32) -> Result<Self, TaskError> {
        let decoder =
            JpegDecoder::parse(&bytes).map_err(|e| TaskError::Malformed(e.to_string()))?;
        let blocks_per_phase = (chunk_words / 16).max(1);
        let chunk_words = blocks_per_phase * 16;
        let window_bytes = blocks_per_phase as usize * JPEG_WINDOW_BYTES_PER_BLOCK + 64;
        let input_words = (window_bytes as u32).div_ceil(4);
        let phases = decoder.total_blocks().div_ceil(blocks_per_phase as usize) as u32;
        Ok(Self {
            bytes,
            decoder,
            chunk_words,
            regions: layout(4, input_words, chunk_words * phases),
        })
    }

    fn blocks_per_phase(&self) -> usize {
        (self.chunk_words / 16) as usize
    }
}

impl StreamingTask for JpegDecodeTask {
    fn name(&self) -> String {
        "jpg-decode".to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.decoder
            .total_blocks()
            .div_ceil(self.blocks_per_phase())
    }

    fn profile(&self) -> TaskProfile {
        TaskProfile {
            total_blocks: self.total_blocks(),
            block_words: self.chunk_words,
            state_words: 4,
            compute_cycles_per_block: JPEG_CYCLES_PER_BLOCK * self.blocks_per_phase() as u64,
            accesses_per_block: u64::from(self.regions.1.words) * 2
                + u64::from(self.chunk_words)
                + 8,
        }
    }

    fn state_region(&self) -> Region {
        self.regions.0
    }

    fn output_region(&self) -> Region {
        self.regions.2
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        write_region(bus, self.regions.0, &EntropyState::default().to_words());
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        if block >= self.total_blocks() {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let state_words = read_region(bus, self.regions.0)?;
        let mut array = [0u32; 4];
        array.copy_from_slice(&state_words);
        let abs_state = EntropyState::from_words(array);
        let done = abs_state.blocks_done as usize;
        let n = self
            .blocks_per_phase()
            .min(self.decoder.total_blocks().saturating_sub(done));
        if n == 0 {
            return Ok(0);
        }
        // DMA the entropy window for this run of blocks into L1.
        let entropy = &self.bytes[self.decoder.entropy_start()..];
        let window_start = abs_state.byte_pos as usize;
        if window_start > entropy.len() {
            // The stream position came from the (detector-checked) state
            // region, so landing outside the stream means a corruption
            // slipped past the detector: structure broke, like any other
            // malformed-stream condition.
            return Err(TaskError::Malformed(format!(
                "corrupt decoder state: byte position {window_start} beyond stream"
            )));
        }
        let window_len = (self.regions.1.words as usize * 4).min(entropy.len() - window_start);
        let window = &entropy[window_start..window_start + window_len];
        let in_words = pack_bytes(window);
        write_region(bus, self.regions.1, &in_words);
        let raw = read_words(bus, self.regions.1, in_words.len())?;
        let bytes = unpack_bytes(&raw, window.len());
        bus.tick(JPEG_CYCLES_PER_BLOCK * n as u64);
        // Decode relative to the window.
        let mut rel_state = abs_state;
        rel_state.byte_pos = 0;
        let mut pixels = Vec::with_capacity(n * 64);
        self.decoder
            .decode_blocks(&bytes, &mut rel_state, n, &mut pixels)
            .map_err(|e| TaskError::Malformed(e.to_string()))?;
        let mut new_state = rel_state;
        new_state.byte_pos += abs_state.byte_pos;
        let out_words = pack_bytes(&pixels);
        write_region_at(
            bus,
            self.regions.2,
            block as u32 * self.chunk_words,
            &out_words,
        );
        write_region(bus, self.regions.0, &new_state.to_words());
        Ok(out_words.len() as u32)
    }
}

// ---------------------------------------------------------------------------
// Benchmark registry
// ---------------------------------------------------------------------------

/// Most synthesised benchmark inputs [`Benchmark::build_task_scaled`]
/// keeps memoised at once (oldest evicted first).
pub const INPUT_MEMO_CAPACITY: usize = 32;

/// A synthesised benchmark input, shared between the memo and builds.
#[derive(Debug, Clone)]
enum FrameInput {
    /// PCM samples (encoder input).
    Pcm(Arc<[i16]>),
    /// Encoded bytes: codec codes (decoder input) or a JPEG stream.
    Bytes(Arc<[u8]>),
}

impl FrameInput {
    /// A task-owned copy of the PCM samples.
    fn pcm(&self) -> Vec<i16> {
        match self {
            FrameInput::Pcm(pcm) => pcm.to_vec(),
            FrameInput::Bytes(_) => unreachable!("encoder inputs are synthesised as PCM"),
        }
    }

    /// A task-owned copy of the encoded bytes.
    fn bytes(&self) -> Vec<u8> {
        match self {
            FrameInput::Bytes(bytes) => bytes.to_vec(),
            FrameInput::Pcm(_) => unreachable!("decoder inputs are synthesised as bytes"),
        }
    }
}

/// The input memo: `((benchmark, input length), input)`, oldest first.
type InputMemo = Vec<((Benchmark, usize), FrameInput)>;

/// The process-wide input memo behind [`Benchmark::build_task_scaled`].
///
/// Every update (one `remove`, one `push`) leaves the memo a valid list,
/// so callers recover the guard of a poisoned lock instead of failing.
fn input_memo() -> &'static Mutex<InputMemo> {
    static MEMO: OnceLock<Mutex<InputMemo>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

/// The five benchmarks of the paper's evaluation, plus the wideband
/// G.722 pair added for timeline scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// IMA ADPCM encoder (`rawcaudio`).
    AdpcmEncode,
    /// IMA ADPCM decoder (`rawdaudio`).
    AdpcmDecode,
    /// G.721 encoder.
    G721Encode,
    /// G.721 decoder.
    G721Decode,
    /// Baseline JPEG decoder (`djpeg`).
    JpegDecode,
    /// G.722 sub-band encoder (wideband extension).
    G722Encode,
    /// G.722 sub-band decoder (wideband extension).
    G722Decode,
}

impl Benchmark {
    /// All benchmarks: the paper's Table I order, then the G.722 pair.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::AdpcmEncode,
        Benchmark::AdpcmDecode,
        Benchmark::G721Encode,
        Benchmark::G721Decode,
        Benchmark::JpegDecode,
        Benchmark::G722Encode,
        Benchmark::G722Decode,
    ];

    /// Paper-style display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::AdpcmEncode => "ADPCM encode",
            Benchmark::AdpcmDecode => "ADPCM decode",
            Benchmark::G721Encode => "G721 encode",
            Benchmark::G721Decode => "G721 decode",
            Benchmark::JpegDecode => "JPG decode",
            Benchmark::G722Encode => "G722 encode",
            Benchmark::G722Decode => "G722 decode",
        }
    }

    /// Builds a fresh task instance with a `chunk_words`-word data chunk,
    /// over the benchmark's standard synthetic input.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` (and, for JPEG, if the internally
    /// generated stream fails to parse — impossible by construction).
    #[must_use]
    pub fn build_task(self, chunk_words: u32) -> Box<dyn StreamingTask> {
        self.build_task_scaled(chunk_words, 1.0)
    }

    /// Number of PCM samples the benchmark's standard input has at `scale`.
    ///
    /// The paper's tasks are *periodic stream frames* with deadlines, not
    /// whole files: one IMA-ADPCM frame (~1024 samples, 128 ms at 8 kHz)
    /// and one G.726 RTP-style packet window (192 samples, 24 ms). Frame
    /// lengths are sized so one frame sees O(1) expected strikes at the
    /// paper's worst-case rate of 1e-6 word/cycle.
    fn audio_samples(self, scale: f64) -> usize {
        let base = match self {
            // Encoder frames are longer than decoder frames because the
            // decoder's 16-bit PCM output occupies 4x the L1 footprint of
            // the encoder's 4-bit codes: frames are sized so the live
            // frame buffer sees O(1) expected strikes at 1e-6 word/cycle.
            Benchmark::AdpcmEncode => 512.0,
            Benchmark::AdpcmDecode => 256.0,
            // G.726 costs ~4x more cycles/sample; one RTP packet window.
            Benchmark::G721Encode => 192.0,
            Benchmark::G721Decode => 96.0,
            // G.722 runs at 16 kHz, so a same-duration frame holds twice
            // the samples of its narrowband sibling — but the 16-word
            // state makes checkpoints dearer, so frames stay moderate.
            Benchmark::G722Encode => 384.0,
            Benchmark::G722Decode => 128.0,
            Benchmark::JpegDecode => 0.0, // unused
        };
        ((base * scale) as usize).max(48)
    }

    /// JPEG frame edge length at `scale` (one thumbnail/preview tile).
    fn jpeg_side(scale: f64) -> usize {
        if scale >= 2.0 {
            32
        } else {
            16
        }
    }

    /// Input-size key of the standard frame at `scale`: the PCM sample
    /// count for audio codecs, the image edge length for JPEG.
    fn input_len(self, scale: f64) -> usize {
        match self {
            Benchmark::JpegDecode => Self::jpeg_side(scale),
            _ => self.audio_samples(scale),
        }
    }

    /// Synthesises the benchmark's standard input of size `len` (see
    /// [`Benchmark::input_len`]): PCM for encoders, encoded codes for
    /// decoders, the encoded stream for JPEG.
    fn synthesise_input(self, len: usize) -> FrameInput {
        match self {
            Benchmark::AdpcmEncode => FrameInput::Pcm(speech_pcm(len, 0xA1).into()),
            Benchmark::AdpcmDecode => {
                FrameInput::Bytes(adpcm::encode(&speech_pcm(len, 0xA2)).into())
            }
            Benchmark::G721Encode => FrameInput::Pcm(speech_pcm(len, 0xB1).into()),
            Benchmark::G721Decode => FrameInput::Bytes(g726::encode(&speech_pcm(len, 0xB2)).into()),
            Benchmark::JpegDecode => {
                let img = test_image(len, len, 0xC1);
                FrameInput::Bytes(jpeg::encode(&img, len, len, 80).into())
            }
            Benchmark::G722Encode => FrameInput::Pcm(speech_pcm(len, 0xD1).into()),
            Benchmark::G722Decode => FrameInput::Bytes(g722::encode(&speech_pcm(len, 0xD2)).into()),
        }
    }

    /// The benchmark's standard input of size `len`, from the process-wide
    /// memo (synthesised and inserted on a miss).
    fn frame_input(self, len: usize) -> FrameInput {
        let memo = input_memo();
        let lookup = |memo: &InputMemo| {
            memo.iter()
                .find(|(key, _)| *key == (self, len))
                .map(|(_, input)| input.clone())
        };
        if let Some(input) = lookup(&memo.lock().unwrap_or_else(PoisonError::into_inner)) {
            return input;
        }
        // Synthesise outside the lock so concurrent misses on other
        // inputs do not serialise; a racing twin inserts an equal value.
        let input = self.synthesise_input(len);
        let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
        if lookup(&memo).is_none() {
            if memo.len() == INPUT_MEMO_CAPACITY {
                memo.remove(0);
            }
            memo.push(((self, len), input.clone()));
        }
        input
    }

    /// Like [`Benchmark::build_task`] with an input-length scale factor
    /// (0.1 = ten times shorter runs, for fast tests).
    ///
    /// The synthesised input — PCM, encoded codes or JPEG stream — is a
    /// pure function of the benchmark and its input length, so it is
    /// memoised process-wide: only the first build of each (benchmark,
    /// length) pays for synthesis, later builds copy the memoised frame
    /// into the task's own buffer. The memo holds at most
    /// [`INPUT_MEMO_CAPACITY`] entries and evicts the oldest, so a
    /// campaign sweeping many scales cannot grow it without bound.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or `scale` is not in `(0, 4]`.
    #[must_use]
    pub fn build_task_scaled(self, chunk_words: u32, scale: f64) -> Box<dyn StreamingTask> {
        assert!(scale > 0.0 && scale <= 4.0, "scale out of range");
        let len = self.input_len(scale);
        let input = self.frame_input(len);
        match self {
            Benchmark::AdpcmEncode => Box::new(AdpcmEncodeTask::new(input.pcm(), chunk_words)),
            Benchmark::AdpcmDecode => {
                Box::new(AdpcmDecodeTask::new(input.bytes(), len, chunk_words))
            }
            Benchmark::G721Encode => Box::new(G721EncodeTask::new(input.pcm(), chunk_words)),
            Benchmark::G721Decode => Box::new(G721DecodeTask::new(input.bytes(), len, chunk_words)),
            Benchmark::JpegDecode => Box::new(
                JpegDecodeTask::new(input.bytes(), chunk_words)
                    .expect("internally generated stream parses"),
            ),
            Benchmark::G722Encode => Box::new(G722EncodeTask::new(input.pcm(), chunk_words)),
            Benchmark::G722Decode => Box::new(G722DecodeTask::new(input.bytes(), len, chunk_words)),
        }
    }

    /// Analytic [`TaskProfile`] for a given chunk size *without* building
    /// the task (no input synthesis) — what the chunk-size optimizer
    /// sweeps over hundreds of candidate sizes.
    ///
    /// Matches `self.build_task_scaled(chunk_words, scale).profile()`
    /// exactly (asserted in tests).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or `scale` is out of range.
    #[must_use]
    pub fn profile_for_chunk(self, chunk_words: u32, scale: f64) -> TaskProfile {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(scale > 0.0 && scale <= 4.0, "scale out of range");
        match self {
            Benchmark::AdpcmEncode | Benchmark::G721Encode | Benchmark::G722Encode => {
                let n = self.audio_samples(scale);
                let spb = chunk_words as usize * 8;
                let input_words = (chunk_words * 8).div_ceil(2);
                let (state, cycles) = match self {
                    Benchmark::AdpcmEncode => (2u32, ADPCM_CYCLES_PER_SAMPLE),
                    Benchmark::G721Encode => (G726State::WORDS as u32, G726_CYCLES_PER_SAMPLE),
                    _ => (G722State::WORDS as u32, G722_CYCLES_PER_SAMPLE),
                };
                let state_accesses = if state == 2 { 4 } else { 2 * u64::from(state) };
                TaskProfile {
                    total_blocks: n.div_ceil(spb),
                    block_words: chunk_words,
                    state_words: state,
                    compute_cycles_per_block: cycles * spb as u64,
                    accesses_per_block: u64::from(input_words) * 2
                        + u64::from(chunk_words)
                        + state_accesses,
                }
            }
            Benchmark::AdpcmDecode | Benchmark::G721Decode | Benchmark::G722Decode => {
                let n = self.audio_samples(scale);
                let spb = chunk_words as usize * 2;
                let input_words = (chunk_words * 2 / 2).div_ceil(4).max(1);
                let (state, cycles) = match self {
                    Benchmark::AdpcmDecode => (2u32, ADPCM_CYCLES_PER_SAMPLE),
                    Benchmark::G721Decode => (G726State::WORDS as u32, G726_CYCLES_PER_SAMPLE),
                    _ => (G722State::WORDS as u32, G722_CYCLES_PER_SAMPLE),
                };
                let state_accesses = if state == 2 { 4 } else { 2 * u64::from(state) };
                TaskProfile {
                    total_blocks: n.div_ceil(spb),
                    block_words: chunk_words,
                    state_words: state,
                    compute_cycles_per_block: cycles * spb as u64,
                    accesses_per_block: u64::from(input_words) * 2
                        + u64::from(chunk_words)
                        + state_accesses,
                }
            }
            Benchmark::JpegDecode => {
                let side = Self::jpeg_side(scale);
                let blocks_per_phase = (chunk_words / 16).max(1);
                let chunk_words = blocks_per_phase * 16;
                let total_jpeg_blocks = side.div_ceil(8) * side.div_ceil(8);
                let window_bytes = blocks_per_phase as usize * JPEG_WINDOW_BYTES_PER_BLOCK + 64;
                let input_words = (window_bytes as u32).div_ceil(4);
                TaskProfile {
                    total_blocks: total_jpeg_blocks.div_ceil(blocks_per_phase as usize),
                    block_words: chunk_words,
                    state_words: 4,
                    compute_cycles_per_block: JPEG_CYCLES_PER_BLOCK * u64::from(blocks_per_phase),
                    accesses_per_block: u64::from(input_words) * 2 + u64::from(chunk_words) + 8,
                }
            }
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkpoint_ecc::EccKind;
    use chunkpoint_sim::{Component, FaultProcess, PlainBus, Platform, Sram};

    fn quiet_bus() -> PlainBus {
        let sram = Sram::new("l1", 16 * 1024, EccKind::None, FaultProcess::disabled()).unwrap();
        PlainBus::new(sram, Platform::lh7a400(), Component::L1)
    }

    /// Runs a task straight through on a fault-free bus, draining the
    /// accumulated frame output at the end.
    fn run_to_completion(task: &mut dyn StreamingTask, bus: &mut PlainBus) -> Vec<u32> {
        task.init(bus).unwrap();
        let mut produced_per_block = Vec::new();
        for block in 0..task.total_blocks() {
            produced_per_block.push(task.run_block(block, bus).unwrap());
        }
        let mut drained = Vec::new();
        for (block, &produced) in produced_per_block.iter().enumerate() {
            let offset = task.output_offset(block);
            for i in 0..produced {
                drained.push(bus.load(task.output_region().word(offset + i)).unwrap());
            }
        }
        drained
    }

    #[test]
    fn adpcm_encode_task_matches_pure_codec() {
        let pcm = speech_pcm(2000, 0xA1);
        let mut task = AdpcmEncodeTask::new(pcm.clone(), 8);
        let mut bus = quiet_bus();
        let drained = run_to_completion(&mut task, &mut bus);
        let expected = pack_bytes(&adpcm::encode(&pcm));
        assert_eq!(drained, expected);
    }

    #[test]
    fn adpcm_decode_task_matches_pure_codec() {
        let pcm = speech_pcm(2000, 7);
        let codes = adpcm::encode(&pcm);
        let mut task = AdpcmDecodeTask::new(codes.clone(), 2000, 8);
        let mut bus = quiet_bus();
        let drained = run_to_completion(&mut task, &mut bus);
        let expected = pack_i16(&adpcm::decode(&codes, 2000));
        assert_eq!(drained, expected);
    }

    #[test]
    fn g721_encode_task_matches_pure_codec() {
        let pcm = speech_pcm(1500, 0xB1);
        let mut task = G721EncodeTask::new(pcm.clone(), 4);
        let mut bus = quiet_bus();
        let drained = run_to_completion(&mut task, &mut bus);
        let expected = pack_bytes(&g726::encode(&pcm));
        assert_eq!(drained, expected);
    }

    #[test]
    fn g721_decode_task_matches_pure_codec() {
        let pcm = speech_pcm(1500, 0xB2);
        let codes = g726::encode(&pcm);
        let mut task = G721DecodeTask::new(codes.clone(), 1500, 4);
        let mut bus = quiet_bus();
        let drained = run_to_completion(&mut task, &mut bus);
        let expected = pack_i16(&g726::decode(&codes, 1500));
        assert_eq!(drained, expected);
    }

    #[test]
    fn g722_encode_task_matches_pure_codec() {
        let pcm = speech_pcm(1500, 0xD1);
        let mut task = G722EncodeTask::new(pcm.clone(), 4);
        let mut bus = quiet_bus();
        let drained = run_to_completion(&mut task, &mut bus);
        let expected = pack_bytes(&g722::encode(&pcm));
        assert_eq!(drained, expected);
    }

    #[test]
    fn g722_decode_task_matches_pure_codec() {
        let pcm = speech_pcm(1500, 0xD2);
        let codes = g722::encode(&pcm);
        let mut task = G722DecodeTask::new(codes.clone(), 1500, 4);
        let mut bus = quiet_bus();
        let drained = run_to_completion(&mut task, &mut bus);
        let expected = pack_i16(&g722::decode(&codes, 1500));
        assert_eq!(drained, expected);
    }

    #[test]
    fn jpeg_decode_task_matches_pure_decoder() {
        let img = test_image(32, 32, 0xC1);
        let bytes = jpeg::encode(&img, 32, 32, 80);
        let mut task = JpegDecodeTask::new(bytes.clone(), 32).unwrap();
        let mut bus = quiet_bus();
        let drained = run_to_completion(&mut task, &mut bus);
        // Pure path: decode all blocks, compare pixel streams.
        let dec = JpegDecoder::parse(&bytes).unwrap();
        let mut state = EntropyState::default();
        let mut pixels = Vec::new();
        dec.decode_blocks(
            &bytes[dec.entropy_start()..],
            &mut state,
            dec.total_blocks(),
            &mut pixels,
        )
        .unwrap();
        assert_eq!(drained, pack_bytes(&pixels));
    }

    #[test]
    fn rerunning_a_block_is_idempotent() {
        // The restartability contract: run block 3, then run it again;
        // the second run must produce identical output and state.
        let pcm = speech_pcm(4000, 3);
        let mut task = G721EncodeTask::new(pcm, 4);
        let mut bus = quiet_bus();
        task.init(&mut bus).unwrap();
        for b in 0..3 {
            task.run_block(b, &mut bus).unwrap();
        }
        // Snapshot state before block 3.
        let state_before = read_region(&mut bus, task.state_region()).unwrap();
        let n1 = task.run_block(3, &mut bus).unwrap();
        let out1 = read_region(&mut bus, task.output_region()).unwrap();
        // Restore state (what the ISR does from L1') and re-run.
        write_region(&mut bus, task.state_region(), &state_before);
        let n2 = task.run_block(3, &mut bus).unwrap();
        let out2 = read_region(&mut bus, task.output_region()).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn task_profiles_are_consistent() {
        for benchmark in Benchmark::ALL {
            let task = benchmark.build_task_scaled(16, 0.1);
            let profile = task.profile();
            assert_eq!(profile.total_blocks, task.total_blocks(), "{benchmark}");
            assert!(profile.block_words > 0, "{benchmark}");
            assert!(profile.compute_cycles_per_block > 0, "{benchmark}");
            assert_eq!(
                profile.block_words * profile.total_blocks as u32,
                task.output_region().words,
                "{benchmark}: frame output region holds one chunk per block"
            );
            assert_eq!(
                profile.state_words,
                task.state_region().words,
                "{benchmark}"
            );
        }
    }

    #[test]
    fn all_benchmarks_complete_on_clean_bus() {
        for benchmark in Benchmark::ALL {
            let mut task = benchmark.build_task_scaled(16, 0.1);
            let mut bus = quiet_bus();
            let drained = run_to_completion(task.as_mut(), &mut bus);
            assert!(!drained.is_empty(), "{benchmark}");
        }
    }

    #[test]
    fn out_of_range_block_is_config_error() {
        let mut task = Benchmark::AdpcmEncode.build_task_scaled(8, 0.1);
        let mut bus = quiet_bus();
        task.init(&mut bus).unwrap();
        let err = task.run_block(10_000, &mut bus).unwrap_err();
        assert!(matches!(err, TaskError::Config(_)));
    }

    #[test]
    fn jpeg_chunk_rounds_to_block_multiple() {
        let img = test_image(16, 16, 1);
        let bytes = jpeg::encode(&img, 16, 16, 70);
        let task = JpegDecodeTask::new(bytes, 20).unwrap();
        assert_eq!(task.profile().block_words, 16);
    }

    #[test]
    fn benchmark_display_names() {
        assert_eq!(Benchmark::JpegDecode.to_string(), "JPG decode");
        assert_eq!(Benchmark::G722Encode.to_string(), "G722 encode");
        assert_eq!(Benchmark::ALL.len(), 7);
    }

    #[test]
    fn jpeg_window_survives_worst_case_entropy() {
        // A noisy image at maximum quality produces the densest entropy
        // stream; the per-block refill window must still cover every run
        // of blocks or decoding would starve mid-phase.
        let mut noisy = test_image(32, 32, 0xBAD);
        for (i, px) in noisy.iter_mut().enumerate() {
            // Salt-and-pepper on top of texture: worst case for RLE.
            if i % 3 == 0 {
                *px = if i % 6 == 0 { 255 } else { 0 };
            }
        }
        let bytes = jpeg::encode(&noisy, 32, 32, 100);
        for chunk_words in [16u32, 48] {
            let mut task = JpegDecodeTask::new(bytes.clone(), chunk_words).unwrap();
            let mut bus = quiet_bus();
            task.init(&mut bus).unwrap();
            for block in 0..task.total_blocks() {
                task.run_block(block, &mut bus)
                    .unwrap_or_else(|e| panic!("chunk={chunk_words} block={block}: {e}"));
            }
        }
    }

    /// Builds the standard task from freshly synthesised input through
    /// the public constructors, bypassing the input memo.
    fn build_unmemoised(
        benchmark: Benchmark,
        chunk_words: u32,
        scale: f64,
    ) -> Box<dyn StreamingTask> {
        let n = benchmark.audio_samples(scale);
        match benchmark {
            Benchmark::AdpcmEncode => {
                Box::new(AdpcmEncodeTask::new(speech_pcm(n, 0xA1), chunk_words))
            }
            Benchmark::AdpcmDecode => Box::new(AdpcmDecodeTask::new(
                adpcm::encode(&speech_pcm(n, 0xA2)),
                n,
                chunk_words,
            )),
            Benchmark::G721Encode => {
                Box::new(G721EncodeTask::new(speech_pcm(n, 0xB1), chunk_words))
            }
            Benchmark::G721Decode => Box::new(G721DecodeTask::new(
                g726::encode(&speech_pcm(n, 0xB2)),
                n,
                chunk_words,
            )),
            Benchmark::JpegDecode => {
                let side = Benchmark::jpeg_side(scale);
                let bytes = jpeg::encode(&test_image(side, side, 0xC1), side, side, 80);
                Box::new(JpegDecodeTask::new(bytes, chunk_words).unwrap())
            }
            Benchmark::G722Encode => {
                Box::new(G722EncodeTask::new(speech_pcm(n, 0xD1), chunk_words))
            }
            Benchmark::G722Decode => Box::new(G722DecodeTask::new(
                g722::encode(&speech_pcm(n, 0xD2)),
                n,
                chunk_words,
            )),
        }
    }

    #[test]
    fn memoised_builds_match_freshly_synthesised_input() {
        for benchmark in Benchmark::ALL {
            for scale in [0.25, 2.0] {
                let mut fresh = build_unmemoised(benchmark, 16, scale);
                let mut fresh_bus = quiet_bus();
                let expected = run_to_completion(fresh.as_mut(), &mut fresh_bus);
                // Twice: the first build may synthesise, the second must hit.
                for _ in 0..2 {
                    let mut memoised = benchmark.build_task_scaled(16, scale);
                    let mut bus = quiet_bus();
                    let output = run_to_completion(memoised.as_mut(), &mut bus);
                    assert_eq!(output, expected, "{benchmark} scale={scale}");
                    assert_eq!(bus.now(), fresh_bus.now(), "{benchmark} scale={scale}");
                    assert_eq!(memoised.profile(), fresh.profile(), "{benchmark}");
                }
            }
        }
    }

    #[test]
    fn input_memo_stays_within_capacity() {
        for step in 1..=4 * INPUT_MEMO_CAPACITY {
            let scale = step as f64 * 3.0 / (4 * INPUT_MEMO_CAPACITY) as f64 + 0.5;
            let _ = Benchmark::G721Encode.build_task_scaled(16, scale);
            let held = input_memo().lock().unwrap().len();
            assert!(held <= INPUT_MEMO_CAPACITY, "memo grew to {held}");
        }
        assert_eq!(input_memo().lock().unwrap().len(), INPUT_MEMO_CAPACITY);
    }

    #[test]
    fn analytic_profile_matches_built_task() {
        for benchmark in Benchmark::ALL {
            for chunk_words in [1u32, 4, 11, 16, 32, 44, 64, 128] {
                for scale in [0.25, 1.0] {
                    let built = benchmark.build_task_scaled(chunk_words, scale).profile();
                    let analytic = benchmark.profile_for_chunk(chunk_words, scale);
                    assert_eq!(
                        built, analytic,
                        "{benchmark} chunk={chunk_words} scale={scale}"
                    );
                }
            }
        }
    }
}
