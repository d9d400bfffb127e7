// Host-side deep copy of a kernel and its objects (Kernel::Clone), for
// experiments that build one set-up and run several seeds from it. Not the
// paper's Kernel_Clone syscall, which lives in kernel_image.cpp.
#include <stdexcept>

#include "kernel/contract.hpp"
#include "kernel/kernel.hpp"

namespace tp::kernel {

std::shared_ptr<CSpace> CopyCSpace(const std::shared_ptr<CSpace>& cspace,
                                   CSpaceCopies& copies) {
  if (cspace == nullptr) {
    return nullptr;
  }
  std::shared_ptr<CSpace>& copy = copies[cspace.get()];
  if (copy == nullptr) {
    copy = std::make_shared<CSpace>(*cspace);
  }
  return copy;
}

std::unique_ptr<Kernel> Kernel::Clone(hw::Machine& machine, CSpaceCopies& cspaces) const {
  if (checker_ != nullptr) {
    throw std::logic_error("Kernel::Clone: a contract checker (taint mode) cannot be copied");
  }
  if (shared_probe_) {
    throw std::logic_error("Kernel::Clone: a shared-data probe cannot be copied");
  }
  if (machine.num_cores() != machine_.num_cores()) {
    throw std::logic_error("Kernel::Clone: the machine is not a clone of this kernel's");
  }
  return std::unique_ptr<Kernel>(new Kernel(*this, machine, cspaces));
}

Kernel::Kernel(const Kernel& source, hw::Machine& machine, CSpaceCopies& cspaces)
    : machine_(machine),
      config_(source.config_),
      fault_flush_l1d_(source.fault_flush_l1d_),
      fault_flush_l1i_(source.fault_flush_l1i_),
      fault_flush_tlb_(source.fault_flush_tlb_),
      fault_flush_bp_(source.fault_flush_bp_),
      fault_flush_llc_(source.fault_flush_llc_),
      fault_pad_truncate_(source.fault_pad_truncate_),
      objects_(source.objects_),
      scheduler_(source.scheduler_),
      shared_data_(source.shared_data_),
      boot_info_(source.boot_info_),
      core_state_(source.core_state_),
      boot_image_(source.boot_image_),
      flush_buffer_base_(source.flush_buffer_base_),
      next_asid_(source.next_asid_),
      next_image_id_(source.next_image_id_),
      domain_switches_(source.domain_switches_),
      steps_(source.steps_),
      domain_image_(source.domain_image_) {
  boot_info_.root_cspace = CopyCSpace(source.boot_info_.root_cspace, cspaces);
  for (std::size_t i = 0; i < source.kernel_owned_programs_.size(); ++i) {
    kernel_owned_programs_.push_back(NewIdleProgram());
  }
  for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
    apis_.push_back(std::make_unique<UserApi>(*this, static_cast<hw::CoreId>(c)));
  }

  // Pointers the object copy carried over from the source: idle programs,
  // cspaces, table-frame sources and (for the cores) address spaces.
  std::unordered_map<const hw::TranslationContext*, const hw::TranslationContext*> contexts;
  for (ObjId id = 0; id < objects_.size(); ++id) {
    const Object& o = objects_.Get(id);
    if (!o.live) {
      continue;
    }
    if (o.type == ObjectType::kTcb) {
      TcbObj& t = objects_.As<TcbObj>(id);
      if (t.program != nullptr) {
        std::size_t i = 0;
        while (i < kernel_owned_programs_.size() &&
               t.program != source.kernel_owned_programs_[i].get()) {
          ++i;
        }
        if (i == kernel_owned_programs_.size()) {
          throw std::logic_error("Kernel::Clone: a thread runs a user program");
        }
        t.program = kernel_owned_programs_[i].get();
      }
      t.cspace = CopyCSpace(t.cspace, cspaces);
    } else if (o.type == ObjectType::kVSpace) {
      contexts[source.objects_.As<VSpaceObj>(id).space.get()] =
          objects_.As<VSpaceObj>(id).space.get();
    } else if (o.type == ObjectType::kKernelImage) {
      const KernelImageObj& from = source.objects_.As<KernelImageObj>(id);
      if (from.window.get() != nullptr) {
        contexts[from.window.get()] = objects_.As<KernelImageObj>(id).window.get();
      }
    }
  }
  RebindFrameSources(&source, this);
  for (std::size_t c = 0; c < machine_.num_cores(); ++c) {
    machine_.core(c).RebindContexts(contexts);
  }
}

void Kernel::RebindFrameSources(const FrameSource* from, FrameSource* to) {
  for (ObjId id = 0; id < objects_.size(); ++id) {
    const Object& o = objects_.Get(id);
    if (!o.live || o.type != ObjectType::kVSpace) {
      continue;
    }
    AddressSpace& space = *objects_.As<VSpaceObj>(id).space;
    if (space.allocator().source == from) {
      space.SetAllocator(FrameAllocator{to, space.allocator().key});
    }
  }
}

}  // namespace tp::kernel
