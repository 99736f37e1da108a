"""Show how dictionary candidates become per-character memory readings.

Builds the two era dictionaries from a synthetic corpus, lists the
candidate words each character of one sentence matches in each era, and
runs the attention read over one era's memory to show the mixing weights.
"""

import numpy as np

import eraseg.autodiff as ad
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

for era, lex in enumerate(lexicons):
    print(f"\nera {era} candidates per character:")
    per_char = extract_candidates(chars, lex, max_ngram=3)
    for ch, cands in zip(chars, per_char):
        shown = ", ".join(
            f"{lex.id_to_word[c.word_id]}/{VALUE_NAMES[c.value_class]}" for c in cands
        )
        print(f"  {ch}: {shown if shown else '(none)'}")

# One attention read: character state against that era's candidate keys.
rng = np.random.default_rng(1)
params = init_memory_params(rng, [len(lex) for lex in lexicons], d_a=8)
era = sentence.era_id
cands = extract_candidates(chars, lexicons[era], max_ngram=3)[0]
h = Tensor(rng.normal(size=(1, 8)))
probs = attend(h, [cands], params.key_tables[era])  # a one-character sentence
print(f"\nattention over era-{era} candidates of the first character:")
for c, p in zip(cands, probs.value[0]):
    print(f"  {lexicons[era].id_to_word[c.word_id]:<4} {VALUE_NAMES[c.value_class]}: {p:.3f}")
print(f"  (weights sum to {ad.sum_all(probs).value[0, 0]:.3f})")
