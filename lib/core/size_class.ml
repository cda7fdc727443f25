type t = {
  page_size : int;
  max_small : int;
  disp_mask : int array;
}

let create (config : Config.t) =
  {
    page_size = config.Config.page_size;
    max_small = Config.max_small_bytes config;
    disp_mask = Config.displacement_mask config;
  }

let displacement_mask t = t.disp_mask
let displacement_ok t d = Config.displacement_in_mask t.disp_mask d
let max_small_bytes t = t.max_small
let is_small t bytes = bytes <= t.max_small

let granules_for bytes =
  if bytes <= 0 then invalid_arg "Size_class.granules_for: non-positive request";
  (bytes + Config.granule - 1) / Config.granule

let bytes_of_granules g = g * Config.granule
let n_classes t = t.max_small / Config.granule

let objects_per_page t ~granules ~first_offset =
  if granules < 1 then invalid_arg "Size_class.objects_per_page: granules < 1";
  let usable = t.page_size - first_offset in
  usable / (granules * Config.granule)
