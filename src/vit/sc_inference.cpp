#include "vit/sc_inference.h"

#include "vit/servable.h"
#include "vit/train.h"

namespace ascend::vit {

double evaluate_sc(VisionTransformer& model, const Dataset& data, const ScInferenceConfig& cfg,
                   int batch_size) {
  return evaluate(*make_sc_servable(model, cfg), data, batch_size);
}

}  // namespace ascend::vit
