"""Self-supervised visual features from paired text, at desk scale.

The pipeline: learn an LDA topic model over the text side of an image/text
corpus by collapsed Gibbs sampling, train a small from-scratch CNN to regress
each image onto its document's topic distribution, then use the shared topic
space for cross-modal retrieval and the net's hidden layers as generic image
features for downstream classification.
"""
