//! # sgx-dfp — Dynamic Fault-history-based Preloading
//!
//! The paper's first scheme (§3.1, §4.1–4.2): the untrusted OS watches the
//! stream of enclave page faults — the only memory-access information SGX
//! lets it see — predicts the pages about to be needed, and preloads them
//! into the EPC before the application faults on them.
//!
//! * [`Predictor`] — the fault-driven prediction interface (object-safe;
//!   bring your own scheme).
//! * [`MultiStreamPredictor`] / [`StreamList`] — the paper's Algorithm 1:
//!   an LRU list of sequential streams, `LOADLENGTH` pages preloaded per
//!   stream extension.
//! * [`NextLinePredictor`], [`StridePredictor`], [`StrideConfidentPredictor`],
//!   [`MarkovPredictor`], [`LeapPredictor`] — the predictor zoo: baselines
//!   from the design space the paper surveys (§4.1) plus a confidence-gated
//!   stride and a Leap-style majority-vector prefetcher.
//! * [`PredictorKind`] — every built-in predictor selectable by name, for
//!   configs, campaign grids and CLIs.
//! * [`AbortPolicy`] / [`AbortValve`] — the *DFP-stop* safety valve
//!   (§4.2): stop preloading when
//!   `AccPreloadCounter + slack < PreloadCounter / 2`.
//!
//! # Examples
//!
//! ```
//! use sgx_dfp::{MultiStreamPredictor, Predictor, ProcessId, StreamConfig};
//! use sgx_epc::VirtPage;
//! use sgx_sim::Cycles;
//!
//! let mut dfp = MultiStreamPredictor::new(
//!     StreamConfig::paper_defaults().with_load_length(4),
//! );
//! let pid = ProcessId(0);
//! dfp.on_fault(Cycles::ZERO, pid, VirtPage::new(10)); // seeds a stream
//! let pred = dfp.on_fault(Cycles::ZERO, pid, VirtPage::new(11));
//! assert_eq!(pred.pages.len(), 4); // pages 12–15 will be preloaded
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abort;
mod baselines;
mod kind;
mod predictor;
mod stream;

pub use abort::{AbortPolicy, AbortValve};
pub use baselines::{
    LeapPredictor, MarkovPredictor, NextLinePredictor, StrideConfidentPredictor, StridePredictor,
};
pub use kind::{ParsePredictorKindError, PredictorKind};
pub use predictor::{NoPredictor, Prediction, Predictor, ProcessId};
pub use stream::{MultiStreamPredictor, StreamConfig, StreamConfigError, StreamList};
