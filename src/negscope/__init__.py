"""Two-step negation resolution: cue tagging followed by scope resolution.

Both steps are sequence labelers built from scratch on numpy: embeddings,
single- and two-input BiLSTMs, a dense projection, and either a per-token
softmax or a linear-chain CRF on top. Training, evaluation, and the command
line live in their own modules:

    numerics    float64 kernels (sigmoid, logsumexp)
    layers      embedding / LSTM / dense / CRF forward and backward passes
    labeling    tag alphabets, gold tag derivation, scope smoother
    corpus      column-format corpus IO, tokenizer, vocabulary, splits
    models      model assembly per variant, checkpoints
    training    losses, Adam, step decay, the training loop
    evaluation  per-sentence count table, reports from its sums, Task-2 groups
    pipeline    the `negscope` command line
"""

__version__ = "0.1.0"
