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
    Tag,
    TagMention,
    Vocabulary,
    Word,
    generate_dataset,
    generate_vocabulary,
    load_dataset,
    render_caption,
    save_dataset,
    split_dataset,
)
from .evaluation import (
    EvalEmbeddings,
    EvalVariantSet,
    RetrievalReport,
    TripletReport,
    build_eval_variants,
    embed_eval_variants,
    map_at_10,
    recall_at_k,
    retrieval_protocol,
    triplet_protocol,
)
from .model import (
    ModelDims,
    ModelParams,
    ParamGrads,
    RowGrad,
    TokenTable,
    encode_audio,
    encode_text,
    init_params,
    load_checkpoint,
    model_backward,
    save_checkpoint,
    similarity,
    tokenize,
)
from .negation import (
    AugmentationExhausted,
    apply_augmentation,
    fully_negate,
    half_negate,
    negation_insert,
)
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
