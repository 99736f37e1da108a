"""Show how dictionary candidates become per-character memory readings.

Builds the two era dictionaries from a synthetic corpus, lists the
candidate words each character of one sentence matches in each era, and
runs the attention read over one era's memory to show the mixing weights.
"""

import numpy as np

from eraseg.autodiff import Tensor
from eraseg.corpus import make_synthetic_corpus
from eraseg.lexicon import VALUE_NAMES, build_lexicon, extract_candidates
from eraseg.memory import attend, init_memory_params

corpus, _ = make_synthetic_corpus(seed=5, n_train=40, n_test=4)
lexicons = [build_lexicon(corpus, era, ngram_min_count=2, max_ngram=3) for era in (0, 1)]
for era, lex in enumerate(lexicons):
    print(f"era {era} dictionary: {len(lex)} entries")

sentence = corpus.sentences[0]
chars = "".join(sentence.words)
print(f"\nsentence (era {sentence.era_id}): {' '.join(sentence.words)}")

# One scan of the sentence gives every era's candidates as padded (T, width)
# arrays: row i lists the words covering character i, mask marks the real slots.
candidates = extract_candidates(chars, lexicons, max_ngram=3)


def described(lex, slots, i):
    """Character i's candidates as "word/value class" strings."""
    keep = slots.mask[i]
    pairs = zip(slots.word_ids[i][keep], slots.classes[i][keep])
    return [f"{lex.id_to_word[w]}/{VALUE_NAMES[c]}" for w, c in pairs]


for era, (lex, slots) in enumerate(zip(lexicons, candidates)):
    print(f"\nera {era} candidates per character (width {slots.mask.shape[1]}):")
    for i, ch in enumerate(chars):
        print(f"  {ch}: {', '.join(described(lex, slots, i)) or '(none)'}")

# One attention read over the whole sentence; show the first character's weights.
rng = np.random.default_rng(1)
params = init_memory_params(rng, [len(lex) for lex in lexicons], d_a=8)
era = sentence.era_id
slots = candidates[era]
h = Tensor(rng.normal(size=(len(chars), 8)))
probs = attend(h, slots, params.keys[era])
print(f"\nattention over era-{era} candidates of the first character:")
for name, p in zip(described(lexicons[era], slots, 0), probs[0][slots.mask[0]]):
    print(f"  {name:<8} {p:.3f}")
print(f"  (weights sum to {probs[0].sum():.3f})")
