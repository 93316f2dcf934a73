"""Desk-scale laboratory for negation handling in joint audio-text embeddings.

Generates a synthetic tag-grounded corpus, trains a small dual encoder with
a contrastive objective plus optional negation interventions (insert
augmentation and a dissimilarity loss term), and evaluates negation handling
as retrieval and as triplet binary classification.
"""

from .corpus import (
    AudioClip,
    Caption,
    Dataset,
    DatasetError,
    DatasetParseError,
    DatasetValidationError,
    TagMention,
    Vocabulary,
    Word,
    generate_dataset,
    generate_vocabulary,
    load_dataset,
    save_dataset,
    split_dataset,
    tokenize,
)
from .evaluation import (
    EvalEmbeddings,
    EvalVariantSet,
    RetrievalReport,
    TripletReport,
    build_eval_variants,
    embed_eval_variants,
    retrieval_protocol,
    triplet_protocol,
)
from .model import (
    ModelDims,
    ModelParams,
    ParamGrads,
    RowGrad,
    TokenTable,
    init_params,
    load_checkpoint,
    model_backward,
    save_checkpoint,
)
from .negation import AugmentationExhausted
from .objective import (
    LossBreakdown,
    clap_loss,
    dissimilarity_loss,
    total_loss_through_encoders,
)
from .training import (
    CheckpointRecord,
    TrainConfig,
    make_batches,
    sweep,
    train,
    train_step,
)

__version__ = "0.1.0"
