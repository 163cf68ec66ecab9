//! # patchdb-nn
//!
//! The recurrent neural network PatchDB uses for security-patch
//! identification (Tables IV and VI): token sequences from patch source
//! code, an embedding layer, a GRU, and a logistic head, trained from
//! scratch with Adam and full backpropagation through time.
//!
//! "In the RNN model, the current state depends on the current inputs and
//! the previous state so that the model can learn the context information
//! from tokens" — Section IV-C. A GRU is the standard modern instantiation
//! of that description.
//!
//! ```rust
//! use patchdb_nn::{RnnConfig, RnnClassifier, TokenSequence};
//!
//! // Toy task: sequences containing token 7 are positive.
//! let data: Vec<(TokenSequence, bool)> = (0..60u32)
//!     .map(|i| {
//!         let has7 = i % 2 == 0;
//!         let toks = if has7 { vec![1, 7, 2] } else { vec![1, 3, 2] };
//!         (TokenSequence::new(toks), has7)
//!     })
//!     .collect();
//! let config = RnnConfig { vocab_size: 16, embed_dim: 8, hidden_dim: 8,
//!                          epochs: 30, lr: 0.02, max_len: 16, seed: 1 };
//! let mut model = RnnClassifier::new(config);
//! model.train(&data);
//! assert!(model.predict_proba(&TokenSequence::new(vec![1, 7, 2])) > 0.5);
//! assert!(model.predict_proba(&TokenSequence::new(vec![1, 3, 2])) < 0.5);
//! ```

#![warn(missing_docs)]

mod encode;
mod gru;
mod linalg;
mod model;
mod vocab;

pub use encode::{encode_patch, patch_token_texts, TokenSequence};
pub use gru::GruCell;
pub use linalg::Mat;
pub use model::{RnnClassifier, RnnConfig};
pub use vocab::{Vocabulary, FIRST_FREE, MARK_ADD, MARK_CTX, MARK_DEL, PAD, UNK};
